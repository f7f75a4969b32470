package wasmvm_test

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/compiler"
	"wasmbench/internal/ir"
	"wasmbench/internal/wasm"
	"wasmbench/internal/wasmvm"
)

const (
	// fuzzStepLimit bounds each fuzz run; 70 of the 82 kernel seeds finish
	// within it, so the pooled comparison runs on real programs.
	fuzzStepLimit = 100000
	// fuzzMaxPages caps linear memory at 32 MiB: room for an Emscripten
	// build's 16 MiB initial heap and one grow chunk.
	fuzzMaxPages = 512
)

// hugeMemoryModule is the binary of `(module (memory 0xFFFFFFFF))`: it
// decodes, and before memory limits were validated its instantiation
// asked the Go runtime for 2^48 bytes and killed the process.
var hugeMemoryModule = []byte{
	0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00, // magic, version 1
	0x05, 0x07, 0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f, // memory: min 0xFFFFFFFF, no max
}

// dataSeed is a small module whose main reads its data segments back
// through loads at probes, stores the sum at store, and returns it; grow
// first runs memory.grow(1).
type dataSeed struct {
	min, max uint32
	segs     []wasm.DataSegment
	probes   []uint32
	store    uint32
	grow     bool
}

// dataSeeds cover the shapes of data segments that instantiation and
// snapshot clones must place exactly: a segment at address 0, one
// straddling a 64 KiB page boundary, one ending exactly at the last
// initial byte, overlapping segments (the later one wins), and a memory of
// zero initial pages that grows before it is written. Each main reads the
// segments back and returns their sum, so an instance that lost them
// returns the wrong value.
func dataSeeds() []dataSeed {
	pat := func(n int, b byte) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = b + byte(i)
		}
		return out
	}
	const p = wasmvm.PageSize
	return []dataSeed{
		{min: 1, max: 1, segs: []wasm.DataSegment{{Offset: 0, Bytes: pat(16, 1)}},
			probes: []uint32{0, 12}, store: 1000},
		{min: 2, max: 2, segs: []wasm.DataSegment{{Offset: p - 6, Bytes: pat(12, 0x21)}},
			probes: []uint32{p - 6, p - 2, p + 2}, store: 2*p - 4},
		{min: 3, max: 4, segs: []wasm.DataSegment{{Offset: 3*p - 10, Bytes: pat(10, 0x41)}},
			probes: []uint32{3*p - 10, 3*p - 4}, store: 64},
		{min: 1, max: 1, segs: []wasm.DataSegment{
			{Offset: 100, Bytes: pat(32, 0x61)}, {Offset: 116, Bytes: pat(32, 0x81)}},
			probes: []uint32{112, 116, 144}, store: 4096},
		{min: 0, max: 2, segs: []wasm.DataSegment{{Offset: 0, Bytes: nil}},
			probes: []uint32{8}, store: p - 4, grow: true},
	}
}

// encode builds the seed's module binary.
func (d dataSeed) encode() ([]byte, error) {
	m := &wasm.Module{Mem: &wasm.MemType{Min: d.min, Max: d.max, HasMax: true}, Data: d.segs}
	t := m.AddType(wasm.FuncType{Results: []wasm.ValType{wasm.I32}})
	var body []wasm.Instr
	if d.grow {
		body = append(body, wasm.Instr{Op: wasm.OpI32Const, Val: 1}, wasm.Instr{Op: wasm.OpMemoryGrow}, wasm.Instr{Op: wasm.OpDrop})
	}
	body = append(body, wasm.Instr{Op: wasm.OpI32Const, Val: int64(d.store)}, wasm.Instr{Op: wasm.OpI32Const})
	for _, a := range d.probes {
		body = append(body, wasm.Instr{Op: wasm.OpI32Const, Val: int64(a)},
			wasm.Instr{Op: wasm.OpI32Load, A: 2}, wasm.Instr{Op: wasm.OpI32Add})
	}
	body = append(body, wasm.Instr{Op: wasm.OpLocalTee, A: 0}, wasm.Instr{Op: wasm.OpI32Store, A: 2},
		wasm.Instr{Op: wasm.OpLocalGet, A: 0}, wasm.Instr{Op: wasm.OpEnd})
	m.Funcs = []wasm.Function{{Type: t, Name: "main", Locals: []wasm.ValType{wasm.I32}, Body: body}}
	m.Exports = []wasm.Export{{Name: "main", Kind: wasm.ExportFunc, Idx: 0}}
	if err := wasm.Validate(m); err != nil {
		return nil, err
	}
	return wasm.Encode(m)
}

// TestDataSeedsRun: every data seed decodes and runs main to completion,
// cold and on both checkouts of a one-instance pool (the snapshot capture
// and a clone), each returning the sum of its probes over the declared
// image, so FuzzWasmDecode compares its pooled runs instead of stopping at
// a typed error.
func TestDataSeedsRun(t *testing.T) {
	for i, d := range dataSeeds() {
		bin, err := d.encode()
		if err != nil {
			t.Fatal(err)
		}
		mod, err := wasm.Decode(bin)
		if err != nil {
			t.Fatal(err)
		}
		img := make([]byte, (d.min+1)*wasmvm.PageSize)
		for _, s := range d.segs {
			copy(img[s.Offset:], s.Bytes)
		}
		var want int32
		for _, a := range d.probes {
			want += int32(binary.LittleEndian.Uint32(img[a:]))
		}
		if want == 0 && !d.grow {
			t.Fatalf("seed %d: its probes sum to 0 over the declared image", i)
		}
		art := &compiler.Artifact{Module: mod, WasmBinary: bin}
		pool := wasmvm.NewInstancePool(mod, len(bin), wasmvm.PoolOptions{MaxInstances: 1})
		for _, run := range []struct {
			name string
			pool *wasmvm.InstancePool
		}{{"cold", nil}, {"capture", pool}, {"clone", pool}} {
			r, err := compiler.RunWasmPooled(art, wasmvm.DefaultConfig(), run.pool)
			if err != nil {
				t.Fatalf("seed %d %s: %v", i, run.name, err)
			}
			if r.Exit != want {
				t.Errorf("seed %d %s: exit %d, want the probe sum %d", i, run.name, r.Exit, want)
			}
		}
	}
}

// checkPostInitImage instantiates mod and compares its linear memory with
// the image the module declares, built here independently: Mem.Min zero
// pages with the data segments copied in order. Only the segments' extent
// is materialized; the memory must be zero past it.
func checkPostInitImage(t *testing.T, mod *wasm.Module, cfg wasmvm.Config) {
	t.Helper()
	vm, err := wasmvm.New(mod, 0, cfg)
	if err != nil {
		return
	}
	if err := vm.Instantiate(); err != nil || mod.Mem == nil {
		return // a typed instantiation failure surfaces on the cold run
	}
	var extent int
	for _, d := range mod.Data {
		extent = max(extent, int(d.Offset)+len(d.Bytes))
	}
	want := make([]byte, extent)
	for _, d := range mod.Data {
		copy(want[d.Offset:], d.Bytes)
	}
	mem := vm.Memory()
	if got, size := mem.Size(), uint64(mod.Mem.Min)*wasmvm.PageSize; got != size {
		t.Fatalf("instantiated memory is %d bytes, want %d", got, size)
	}
	b := mem.Bytes()
	for i := 0; i < max(len(b), extent); i++ {
		var got, w byte
		if i < len(b) {
			got = b[i]
		}
		if i < extent {
			w = want[i]
		}
		if got != w {
			t.Fatalf("instantiated memory byte %d = %#x, want %#x", i, got, w)
		}
	}
}

// FuzzWasmDecode drives arbitrary bytes through the Wasm input boundary, as
// wasmrun does: Decode → Validate → New → Instantiate with the standard
// imports bound → main under a step limit and a small page cap. The
// contract: a result or a typed error, never a panic. When the cold run
// succeeds, both checkouts of a one-instance pool (the snapshot capture,
// then a clone) must report the same steps, cycles (as bits), exit code
// and memory checksum, and an instantiated memory must hold exactly the
// image the module declares. Seeds: the 41 kernels' Wasm
// builds for both toolchains, the module above, and the data-segment
// shapes of dataSeeds.
func FuzzWasmDecode(f *testing.F) {
	for _, b := range benchsuite.All() {
		for _, tc := range []compiler.Toolchain{compiler.Cheerp, compiler.Emscripten} {
			art, err := compiler.Compile(b.Source, compiler.Options{
				Opt: ir.O2, Toolchain: tc, Defines: b.Defines(benchsuite.XS),
				HeapLimit: b.HeapLimitBytes(benchsuite.XS), ModuleName: b.Name,
				Targets: []compiler.Target{compiler.TargetWasm},
			})
			if err != nil {
				f.Fatalf("%s/%s: %v", b.Name, tc, err)
			}
			f.Add(art.WasmBinary)
		}
	}
	f.Add(hugeMemoryModule)
	for i, d := range dataSeeds() {
		bin, err := d.encode()
		if err != nil {
			f.Fatalf("data seed %d: %v", i, err)
		}
		f.Add(bin)
	}
	f.Fuzz(func(t *testing.T, bin []byte) {
		mod, err := wasm.Decode(bin)
		if err != nil {
			return // malformed: Decode's typed rejection
		}
		if err := wasm.Validate(mod); err != nil {
			return // invalid: Validate's typed rejection
		}
		if _, ok := mod.ExportedFunc("main"); !ok {
			return // nothing to run
		}
		cfg := wasmvm.DefaultConfig()
		cfg.StepLimit = fuzzStepLimit
		cfg.MaxPages = fuzzMaxPages
		checkPostInitImage(t, mod, cfg)
		art := &compiler.Artifact{Module: mod, WasmBinary: bin}
		cold, err := compiler.RunWasm(art, cfg)
		if err != nil {
			if !typedRunError(err) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		pool := wasmvm.NewInstancePool(mod, len(bin), wasmvm.PoolOptions{MaxInstances: 1})
		for _, phase := range []string{"capture", "clone"} {
			got, err := compiler.RunWasmPooled(art, cfg, pool)
			if err != nil {
				t.Fatalf("%s run failed where the cold run passed: %v", phase, err)
			}
			if got.Steps != cold.Steps || math.Float64bits(got.Cycles) != math.Float64bits(cold.Cycles) ||
				got.Exit != cold.Exit || got.MemChecksum != cold.MemChecksum {
				t.Fatalf("%s run diverged from cold: steps %d/%d cycles %v/%v exit %d/%d checksum %#x/%#x",
					phase, got.Steps, cold.Steps, got.Cycles, cold.Cycles,
					got.Exit, cold.Exit, got.MemChecksum, cold.MemChecksum)
			}
		}
		if st := pool.Stats(); st.Misses != 1 || st.Hits != 1 || st.Recycles != 2 {
			t.Fatalf("pooled sequence was not a capture and a clone: %+v", st)
		}
	})
}

// typedRunError reports whether err is one of the VM's typed failures: a
// trap, an exhausted budget, or a memory limit.
func typedRunError(err error) bool {
	var oob *wasmvm.TrapOOB
	if errors.As(err, &oob) {
		return true
	}
	for _, target := range []error{
		wasmvm.ErrStepLimit, wasmvm.ErrCallDepth, wasmvm.ErrMemoryExceeded,
		wasmvm.ErrDivByZero, wasmvm.ErrIntOverflow, wasmvm.ErrTruncInvalid,
		wasmvm.ErrUnreachable, wasmvm.ErrUnboundImport, wasmvm.ErrSignature,
	} {
		if errors.Is(err, target) {
			return true
		}
	}
	return false
}

// TestHugeMemoryRejected: a module declaring more than 65536 pages fails
// validation instead of asking the runtime for 2^48 bytes, and a module
// whose initial memory exceeds the configured page cap fails instantiation
// — cold, cloned from a snapshot, or pooled — with ErrMemoryExceeded.
func TestHugeMemoryRejected(t *testing.T) {
	mod, err := wasm.Decode(hugeMemoryModule)
	if err != nil {
		t.Fatal(err)
	}
	if err := wasm.Validate(mod); err == nil {
		t.Fatal("Validate accepted a 0xFFFFFFFF-page memory")
	}
	if _, err := wasmvm.New(mod, len(hugeMemoryModule), wasmvm.DefaultConfig()); err == nil {
		t.Fatal("New accepted a 0xFFFFFFFF-page memory")
	}

	mod.Mem.Min = 64 // valid, but above the cap below
	cfg := wasmvm.DefaultConfig()
	cfg.MaxPages = 16
	vm, err := wasmvm.New(mod, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Instantiate(); !errors.Is(err, wasmvm.ErrMemoryExceeded) {
		t.Errorf("Instantiate above the page cap: %v, want ErrMemoryExceeded", err)
	}
	origin, err := wasmvm.New(mod, 0, wasmvm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := origin.Instantiate(); err != nil {
		t.Fatal(err)
	}
	snap, err := origin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.NewVM(cfg); !errors.Is(err, wasmvm.ErrMemoryExceeded) {
		t.Errorf("clone above the page cap: %v, want ErrMemoryExceeded", err)
	}
	pool := wasmvm.NewInstancePool(mod, 0, wasmvm.PoolOptions{})
	if _, _, err := pool.Get(cfg); !errors.Is(err, wasmvm.ErrMemoryExceeded) {
		t.Errorf("pooled checkout above the page cap: %v, want ErrMemoryExceeded", err)
	}
	if st := pool.Stats(); st.Live != 0 {
		t.Errorf("failed checkout kept a slot: %+v", st)
	}
}
