package compiler

import (
	"math/rand"
	"testing"

	"wasmbench/internal/wasm"
	"wasmbench/internal/wasmvm"
)

// naiveFNV1a is the reference byte-at-a-time loop memChecksum must match
// bit for bit on every input — the checksum is a differential-comparison
// metric, so the zero-run fast path may change only its speed.
func naiveFNV1a(b []byte) uint64 {
	h := fnvOffset
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

func TestMemChecksumMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := [][]byte{
		nil,
		{},
		{0},
		{1},
		make([]byte, 7),          // sub-word, all zero
		make([]byte, 8),          // one zero word
		make([]byte, 65536),      // a zero page
		{1, 2, 3, 4, 5, 6, 7, 8}, // one dense word
	}
	// Dense random buffer at awkward lengths around word boundaries.
	for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 4096, 4099} {
		b := make([]byte, n)
		rng.Read(b)
		cases = append(cases, b)
	}
	// Sparse buffers: the realistic linear-memory shape — a small dense
	// prefix, interior islands of data, and a long zero tail.
	for trial := 0; trial < 50; trial++ {
		b := make([]byte, 1+rng.Intn(1<<16))
		for i := 0; i < len(b)/64; i++ {
			b[rng.Intn(len(b))] = byte(rng.Intn(256))
		}
		cases = append(cases, b)
	}
	for i, b := range cases {
		if got, want := memChecksum(b), naiveFNV1a(b); got != want {
			t.Errorf("case %d (len %d): memChecksum %#x != naive %#x", i, len(b), got, want)
		}
	}
}

func TestFnvPrimePow(t *testing.T) {
	want := uint64(1)
	for n := 0; n < 100; n++ {
		if got := fnvPrimePow(n); got != want {
			t.Fatalf("fnvPrimePow(%d) = %#x, want %#x", n, got, want)
		}
		want *= fnvPrime
	}
}

// storeGrowModule exports poke(addr, v) = i32.store8 and grow(n) =
// memory.grow over a one-page memory of at most eight pages.
func storeGrowModule() *wasm.Module {
	m := &wasm.Module{Mem: &wasm.MemType{Min: 1, Max: 8, HasMax: true}}
	tII := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}})
	tI_I := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	m.Funcs = []wasm.Function{
		{Type: tII, Name: "poke", Body: []wasm.Instr{
			{Op: wasm.OpLocalGet, A: 0}, {Op: wasm.OpLocalGet, A: 1},
			{Op: wasm.OpI32Store8}, {Op: wasm.OpEnd},
		}},
		{Type: tI_I, Name: "grow", Body: []wasm.Instr{
			{Op: wasm.OpLocalGet, A: 0}, {Op: wasm.OpMemoryGrow}, {Op: wasm.OpEnd},
		}},
	}
	m.Exports = []wasm.Export{
		{Name: "poke", Kind: wasm.ExportFunc, Idx: 0},
		{Name: "grow", Kind: wasm.ExportFunc, Idx: 1},
	}
	return m
}

// TestWasmMemChecksumFold: after random stores and grows, the checksum of
// the committed prefix with the zero tail folded in equals the naive
// checksum of the whole zero-padded memory, kept here as a flat model.
func TestWasmMemChecksumFold(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vm, err := wasmvm.New(storeGrowModule(), 0, wasmvm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Instantiate(); err != nil {
			t.Fatal(err)
		}
		model := make([]byte, wasmvm.PageSize)
		folded := false
		for step := 0; step < 60; step++ {
			if rng.Intn(8) == 0 {
				res, err := vm.Call("grow", wasmvm.I32(int32(rng.Intn(3))))
				if err != nil {
					t.Fatal(err)
				}
				if wasmvm.AsI32(res[0]) >= 0 {
					model = append(model, make([]byte, int(vm.Memory().Size())-len(model))...)
				}
			} else {
				// Stores cluster low, so the prefix usually stops short of
				// the end and the fold has a tail to cover.
				addr := rng.Intn(len(model)) >> rng.Intn(8)
				v := byte(1 + rng.Intn(255))
				if _, err := vm.Call("poke", wasmvm.I32(int32(addr)), wasmvm.I32(int32(v))); err != nil {
					t.Fatal(err)
				}
				model[addr] = v
			}
			mem := vm.Memory()
			if uint64(len(mem.Bytes())) < mem.Size() {
				folded = true
			}
			if got, want := wasmMemChecksum(mem), naiveFNV1a(model); got != want {
				t.Fatalf("seed %d step %d: folded checksum %#x != whole-memory %#x (prefix %d of %d bytes)",
					seed, step, got, want, len(mem.Bytes()), mem.Size())
			}
		}
		if !folded {
			t.Errorf("seed %d: the prefix always covered the whole memory; the fold went untested", seed)
		}
	}
}

func BenchmarkMemChecksum(b *testing.B) {
	mem := make([]byte, 4<<20) // 4 MiB, mostly zero: typical post-run memory
	rng := rand.New(rand.NewSource(7))
	rng.Read(mem[:8<<10])
	b.SetBytes(int64(len(mem)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memChecksum(mem)
	}
}
