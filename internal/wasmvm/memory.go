package wasmvm

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the WebAssembly linear-memory page size.
const PageSize = 64 * 1024

// Memory is a WebAssembly linear memory instance: a contiguous, growable
// buffer of untyped bytes. It records the high-water mark of committed
// pages (the study's Wasm memory metric) and the number of grow requests
// (Cheerp's frequent-resize overhead, §4.2.2).
type Memory struct {
	data      []byte
	maxPages  uint32
	peakPages uint32
	// granularity rounds grow requests up, in pages: Cheerp grows by single
	// 64 KiB pages, Emscripten by 16 MiB chunks.
	granularity uint32
	growCount   int
}

// NewMemory allocates min pages with the given page cap and grow granularity.
func NewMemory(minPages, maxPages, granularity uint32) *Memory {
	if granularity == 0 {
		granularity = 1
	}
	m := &Memory{maxPages: maxPages, granularity: granularity}
	m.reset(minPages)
	return m
}

// reset replaces the buffer with pages fresh zero pages and rewinds the
// grow counters, keeping the page cap and granularity (they belong to the
// instance's config, which survives recycling).
func (m *Memory) reset(pages uint32) {
	m.data = make([]byte, int(pages)*PageSize)
	m.peakPages = pages
	m.growCount = 0
}

// Pages returns the current committed size in pages.
func (m *Memory) Pages() uint32 { return uint32(len(m.data) / PageSize) }

// PeakPages returns the high-water mark in pages.
func (m *Memory) PeakPages() uint32 { return m.peakPages }

// GrowCount returns how many successful memory.grow operations happened.
func (m *Memory) GrowCount() int { return m.growCount }

// Grow extends memory by delta pages (rounded up to the grow granularity),
// returning the previous page count, or -1 if the maximum would be exceeded
// (the semantics of memory.grow).
func (m *Memory) Grow(delta uint32) int32 {
	old := m.Pages()
	if delta == 0 {
		return int32(old)
	}
	rounded := (delta + m.granularity - 1) / m.granularity * m.granularity
	newPages := uint64(old) + uint64(rounded)
	if newPages > uint64(m.maxPages) {
		// Retry with the exact request: granularity is an allocator hint,
		// not a hard floor.
		newPages = uint64(old) + uint64(delta)
		if newPages > uint64(m.maxPages) {
			return -1
		}
	}
	grown := make([]byte, int(newPages)*PageSize)
	copy(grown, m.data)
	m.data = grown
	m.growCount++
	if uint32(newPages) > m.peakPages {
		m.peakPages = uint32(newPages)
	}
	return int32(old)
}

// Bytes exposes the raw buffer (used by the host boundary and data
// segment initialization).
func (m *Memory) Bytes() []byte { return m.data }

// TrapOOB is the error for out-of-bounds memory accesses.
type TrapOOB struct {
	Addr uint64
	Size int
}

func (t *TrapOOB) Error() string {
	return fmt.Sprintf("wasmvm: out-of-bounds memory access at %d (%d bytes)", t.Addr, t.Size)
}

func (m *Memory) check(addr uint64, size int) error {
	if addr+uint64(size) > uint64(len(m.data)) {
		return &TrapOOB{Addr: addr, Size: size}
	}
	return nil
}

// Load/store helpers. Addresses are the effective address (base + offset)
// already summed by the interpreter in 64-bit space, so overflow cannot
// wrap.

func (m *Memory) loadU8(addr uint64) (uint64, error) {
	if err := m.check(addr, 1); err != nil {
		return 0, err
	}
	return uint64(m.data[addr]), nil
}

func (m *Memory) loadU16(addr uint64) (uint64, error) {
	if err := m.check(addr, 2); err != nil {
		return 0, err
	}
	return uint64(binary.LittleEndian.Uint16(m.data[addr:])), nil
}

func (m *Memory) loadU32(addr uint64) (uint64, error) {
	if err := m.check(addr, 4); err != nil {
		return 0, err
	}
	return uint64(binary.LittleEndian.Uint32(m.data[addr:])), nil
}

func (m *Memory) loadU64(addr uint64) (uint64, error) {
	if err := m.check(addr, 8); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(m.data[addr:]), nil
}

func (m *Memory) storeU8(addr uint64, v uint64) error {
	if err := m.check(addr, 1); err != nil {
		return err
	}
	m.data[addr] = byte(v)
	return nil
}

func (m *Memory) storeU16(addr uint64, v uint64) error {
	if err := m.check(addr, 2); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(m.data[addr:], uint16(v))
	return nil
}

func (m *Memory) storeU32(addr uint64, v uint64) error {
	if err := m.check(addr, 4); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(m.data[addr:], uint32(v))
	return nil
}

func (m *Memory) storeU64(addr uint64, v uint64) error {
	if err := m.check(addr, 8); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(m.data[addr:], v)
	return nil
}
