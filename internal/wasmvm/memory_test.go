package wasmvm

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"wasmbench/internal/wasm"
)

// logical returns the whole linear memory as a run sees it: the committed
// prefix followed by the zero tail up to Size().
func logical(m *Memory) []byte {
	b := make([]byte, m.Size())
	copy(b, m.Bytes())
	return b
}

// memOps pairs each store opcode with the load that reads its width back
// unextended, and the width in bytes.
var memOps = []struct {
	store, load wasm.Opcode
	size        int
}{
	{wasm.OpI32Store8, wasm.OpI32Load8U, 1},
	{wasm.OpI32Store16, wasm.OpI32Load16U, 2},
	{wasm.OpI32Store, wasm.OpI32Load, 4},
	{wasm.OpI64Store, wasm.OpI64Load, 8},
}

// TestMemoryMatchesFlatModel: random stores, loads and grows over a
// memory that commits on touch behave exactly like a flat zero-filled
// buffer of Size() bytes: every load reads the model, every access past
// Size() traps, the prefix never outgrows Size(), and every 50 steps the
// logical memory equals the model.
func TestMemoryMatchesFlatModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMemory(uint32(rng.Intn(3)), 8, uint32(1+rng.Intn(2)))
		model := make([]byte, m.Size())
		for step := 0; step < 400; step++ {
			op := memOps[rng.Intn(len(memOps))]
			// Mostly in bounds, sometimes across or past the end.
			addr := uint64(rng.Int63n(int64(len(model)) + 16))
			inBounds := addr+uint64(op.size) <= uint64(len(model))
			switch r := rng.Intn(10); {
			case r == 0:
				if old := m.Grow(uint32(rng.Intn(3))); old >= 0 {
					model = append(model, make([]byte, int(m.Size())-len(model))...)
				}
			case r < 6:
				v := rng.Uint64()
				err := memStore(m, op.store, addr, v)
				if !inBounds {
					checkOOB(t, err, addr, op.size)
					continue
				}
				if err != nil {
					t.Fatalf("seed %d: store at %d of %d: %v", seed, addr, len(model), err)
				}
				for i := 0; i < op.size; i++ {
					model[addr+uint64(i)] = byte(v >> (8 * i))
				}
			default:
				got, err := memLoad(m, op.load, addr)
				if !inBounds {
					checkOOB(t, err, addr, op.size)
					continue
				}
				if err != nil {
					t.Fatalf("seed %d: load at %d of %d: %v", seed, addr, len(model), err)
				}
				var want uint64
				for i := op.size - 1; i >= 0; i-- {
					want = want<<8 | uint64(model[addr+uint64(i)])
				}
				if got != want {
					t.Fatalf("seed %d: load%d at %d = %#x, want %#x", seed, 8*op.size, addr, got, want)
				}
			}
			if uint64(len(m.Bytes())) > m.Size() {
				t.Fatalf("seed %d: committed %d bytes past size %d", seed, len(m.Bytes()), m.Size())
			}
			if step%50 == 49 && !bytes.Equal(logical(m), model) {
				t.Fatalf("seed %d step %d: logical memory differs from the flat model", seed, step)
			}
		}
	}
}

func checkOOB(t *testing.T, err error, addr uint64, size int) {
	t.Helper()
	var oob *TrapOOB
	if !errors.As(err, &oob) || oob.Addr != addr || oob.Size != size {
		t.Fatalf("access at %d (%d bytes) past the end: %v, want *TrapOOB{%d, %d}", addr, size, err, addr, size)
	}
}

// TestMemoryStorePastPreGrowSize: a store into pages a grow just added
// commits them and reads back, while the prefix stays short of Size().
func TestMemoryStorePastPreGrowSize(t *testing.T) {
	m := NewMemory(1, 4, 1)
	if old := m.Grow(2); old != 1 {
		t.Fatalf("Grow(2) = %d, want 1", old)
	}
	if len(m.Bytes()) != 0 {
		t.Fatalf("Grow committed %d bytes", len(m.Bytes()))
	}
	addr := uint64(PageSize + 8)
	if err := memStore(m, wasm.OpI32Store, addr, 0xC0FFEE); err != nil {
		t.Fatal(err)
	}
	if v, err := memLoad(m, wasm.OpI32Load, addr); err != nil || v != 0xC0FFEE {
		t.Fatalf("load after store past the pre-grow size = %#x, %v", v, err)
	}
	if n := uint64(len(m.Bytes())); n < addr+4 || n >= m.Size() {
		t.Errorf("committed prefix %d bytes, want in [%d, %d)", n, addr+4, m.Size())
	}
}

// TestMemoryOOBTrapAtSize: an access past Size() traps with the same Addr and
// Size whether nothing, part or all of the memory is committed, and
// commits nothing.
func TestMemoryOOBTrapAtSize(t *testing.T) {
	m := NewMemory(1, 1, 1)
	size := m.Size()
	for _, touch := range []uint64{0, 100, size - 8} {
		if touch > 0 {
			if err := memStore(m, wasm.OpI64Store, touch, 1); err != nil {
				t.Fatal(err)
			}
		}
		committed := len(m.Bytes())
		for _, c := range []struct {
			addr uint64
			op   wasm.Opcode
			n    int
		}{
			{size, wasm.OpI32Load8U, 1},
			{size - 2, wasm.OpI32Load, 4},
			{size - 4, wasm.OpI64Store, 8},
			{1 << 33, wasm.OpI32Store16, 2},
		} {
			var err error
			if c.op >= wasm.OpI32Store {
				err = memStore(m, c.op, c.addr, 0)
			} else {
				_, err = memLoad(m, c.op, c.addr)
			}
			checkOOB(t, err, c.addr, c.n)
			if len(m.Bytes()) != committed {
				t.Fatalf("trapping access at %d committed %d → %d bytes", c.addr, committed, len(m.Bytes()))
			}
		}
	}
}

// emscriptenShapedModule mirrors an Emscripten build's memory: 273 initial
// pages (static data, the stack and a 16 MiB heap chunk) with one small
// data segment near the bottom.
func emscriptenShapedModule() *wasm.Module {
	m := snapModule()
	m.Mem = &wasm.MemType{Min: 273}
	m.Data = append(m.Data, wasm.DataSegment{Offset: 1024, Bytes: bytes.Repeat([]byte{7}, 600)})
	return m
}

// TestMemoryInstantiateCommitsDataExtent: instantiating and cloning a
// 273-page module allocate far less than its 17 MiB, because only the data
// segments' extent is committed, however much of its memory the captured
// instance went on to touch; the logical memory is still the full
// post-init image.
func TestMemoryInstantiateCommitsDataExtent(t *testing.T) {
	const budget = 2 << 20
	mod := emscriptenShapedModule()
	allocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var vm *VM
	if n := allocs(func() {
		var err error
		if vm, err = New(mod, 0, DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		if err := vm.Instantiate(); err != nil {
			t.Fatal(err)
		}
	}); n >= budget {
		t.Errorf("New+Instantiate allocated %d bytes, budget %d", n, budget)
	}
	if got := vm.Memory().Size(); got != 273*PageSize {
		t.Fatalf("memory size %d, want %d", got, 273*PageSize)
	}
	if got := len(vm.Memory().Bytes()); got != 1624 {
		t.Errorf("committed %d bytes, want the data extent 1624", got)
	}
	b := logical(vm.Memory())
	if string(b[64:64+len("post-init image")]) != "post-init image" || b[1024] != 7 || b[1623] != 7 || b[1624] != 0 {
		t.Error("logical memory is not the post-init image")
	}
	snap, err := vm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n := allocs(func() {
		if _, err := snap.NewVM(DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}); n >= budget {
		t.Errorf("Snapshot.NewVM allocated %d bytes, budget %d", n, budget)
	}
	call1(t, vm, "poke", I32(200*PageSize), I32(1))
	clone, err := snap.NewVM(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(clone.Memory().Bytes()); got != 1624 {
		t.Errorf("clone of a used instance's snapshot committed %d bytes, want 1624", got)
	}
}
