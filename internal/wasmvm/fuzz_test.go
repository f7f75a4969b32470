package wasmvm_test

import (
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

// FuzzWasmDecode drives arbitrary bytes through the Wasm input boundary, as
// wasmrun does: Decode → Validate → New → Instantiate with the standard
// imports bound → main under a step limit and a small page cap. The
// contract: a result or a typed error, never a panic. When the cold run
// succeeds, the pooled sequence wasmrun -snapshot drives (Get, run, Put,
// Get, run on the reset instance) must report the same steps, cycles (as
// bits), exit code and memory checksum. Seeds: the 41 kernels' Wasm builds
// for both toolchains and the module above.
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
		art := &compiler.Artifact{Module: mod, WasmBinary: bin}
		cold, err := compiler.RunWasm(art, cfg)
		if err != nil {
			if !typedRunError(err) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		pool := wasmvm.NewInstancePool(mod, len(bin), wasmvm.PoolOptions{MaxInstances: 1})
		for _, phase := range []string{"capture", "recycle"} {
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
			t.Fatalf("pooled sequence did not recycle: %+v", st)
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
