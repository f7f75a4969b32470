package wasmvm

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the WebAssembly linear-memory page size.
const PageSize = 64 * 1024

// Memory is a WebAssembly linear memory instance: a contiguous, growable
// buffer of untyped bytes. It records the high-water mark of pages (the
// study's Wasm memory metric) and the number of grow requests (Cheerp's
// frequent-resize overhead, §4.2.2).
//
// Only a prefix of the memory is backed by host bytes. Every byte from the
// end of that committed prefix up to Size() reads as zero, and the first
// access there commits it (commit), so instantiation and grow cost
// what a run writes rather than the declared heap. Page counts, and so every
// virtual metric, are those of the whole memory.
type Memory struct {
	data      []byte // the committed prefix
	pages     uint32
	maxPages  uint32
	peakPages uint32
	// granularity rounds grow requests up, in pages: Cheerp grows by single
	// 64 KiB pages, Emscripten by 16 MiB chunks.
	granularity uint32
	growCount   int
}

// NewMemory creates min pages with the given page cap and grow granularity.
// No byte is committed yet.
func NewMemory(minPages, maxPages, granularity uint32) *Memory {
	if granularity == 0 {
		granularity = 1
	}
	return &Memory{pages: minPages, peakPages: minPages, maxPages: maxPages, granularity: granularity}
}

// Pages returns the current size in pages.
func (m *Memory) Pages() uint32 { return m.pages }

// Size returns the current size in bytes.
func (m *Memory) Size() uint64 { return uint64(m.pages) * PageSize }

// PeakPages returns the high-water mark in pages.
func (m *Memory) PeakPages() uint32 { return m.peakPages }

// GrowCount returns how many successful memory.grow operations happened.
func (m *Memory) GrowCount() int { return m.growCount }

// Grow extends memory by delta pages (rounded up to the grow granularity),
// returning the previous page count, or -1 if the maximum would be exceeded
// (the semantics of memory.grow). The new pages read as zero; none is
// committed until touched.
func (m *Memory) Grow(delta uint32) int32 {
	old := m.pages
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
	m.pages = uint32(newPages)
	m.growCount++
	if m.pages > m.peakPages {
		m.peakPages = m.pages
	}
	return int32(old)
}

// Bytes exposes the committed prefix (used by the host boundary and the
// memory checksum). The memory's contents are these bytes followed by
// Size()-len(Bytes()) zero bytes.
func (m *Memory) Bytes() []byte { return m.data }

// TrapOOB is the error for out-of-bounds memory accesses.
type TrapOOB struct {
	Addr uint64
	Size int
}

func (t *TrapOOB) Error() string {
	return fmt.Sprintf("wasmvm: out-of-bounds memory access at %d (%d bytes)", t.Addr, t.Size)
}

// check is the bounds test of the load/store fast path, against the
// committed prefix. Its *TrapOOB is final only past Size(): memLoad and
// memStore hand it to commit, which backs an access inside the memory.
func (m *Memory) check(addr uint64, size int) error {
	if addr+uint64(size) > uint64(len(m.data)) {
		return &TrapOOB{Addr: addr, Size: size}
	}
	return nil
}

// commitMin is the smallest committed prefix a touch past the prefix
// leaves, in bytes.
const commitMin = 4096

// commit takes the *TrapOOB check returned for an access. An access inside
// Size() grows the committed prefix to cover it (at least doubling it and
// to commitMin, capped at Size()) and commit returns nil, so the caller
// runs the access once more; any other access returns the trap unchanged.
func (m *Memory) commit(err error) error {
	t := err.(*TrapOOB)
	end := t.Addr + uint64(t.Size)
	if end > m.Size() {
		return err
	}
	n := max(end, 2*uint64(len(m.data)), commitMin)
	n = min(n, m.Size())
	grown := make([]byte, n)
	copy(grown, m.data)
	m.data = grown
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
