package compiler

import (
	"encoding/binary"
	"fmt"
	"math"

	"wasmbench/internal/codegen"
	"wasmbench/internal/jsvm"
	"wasmbench/internal/obsv"
	"wasmbench/internal/wasmvm"
)

// Result captures one program execution on any backend.
type Result struct {
	Exit   int32
	Output []codegen.OutputEvent
	Cycles float64
	Steps  uint64
	// MemoryBytes is the backend's memory metric: linear-memory high-water
	// mark for Wasm/x86, JS-heap peak for JS.
	MemoryBytes uint64
	// ExternalBytes is the JS backing-store peak (JS backend only).
	ExternalBytes uint64
	// MemChecksum is the FNV-1a hash of the final linear memory (Wasm and
	// x86 backends; 0 for JS, whose heap layout is engine-managed). The
	// differential oracle compares it across VM configurations of the
	// same artifact.
	MemChecksum uint64
	// WasmStats carries the Wasm VM counters when applicable.
	WasmStats wasmvm.Stats
	GrowOps   int
	GCs       int
	TierUps   int
	// JSArith carries the JS engine's Table 12 operator counts (JS backend
	// only; the Wasm counts are WasmStats.ArithOps).
	JSArith jsvm.ArithCounts
	// Profiles carries the VM's per-function virtual-cycle profiles when
	// profiling was enabled (Config.Profile or a non-nil Tracer); nil
	// otherwise. The harness merges these into the live telemetry hub.
	Profiles []obsv.FuncProfile
	// VMPooled reports that the run was served through an instance pool
	// (RunWasmPooled with a live pool checkout). Host-time bookkeeping
	// only — never part of differential comparison.
	VMPooled bool
}

const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
)

// memChecksum is FNV-1a over a byte slice, with an exact fast path for zero
// runs. XOR with a zero byte is the identity, so n zero bytes advance the
// hash by h *= prime^n — computed in O(log n) multiplies instead of n.
// Linear memories are overwhelmingly zero pages past the working set, which
// made the byte-at-a-time loop the dominant cost of a whole measurement.
// The value is bit-identical to the naive loop for every input.
func memChecksum(b []byte) uint64 {
	h := fnvOffset
	i := 0
	// Align to 8 so the word scan below reads full words.
	for ; i < len(b) && i%8 != 0; i++ {
		h ^= uint64(b[i])
		h *= fnvPrime
	}
	zeroRun := 0
	for ; i+8 <= len(b); i += 8 {
		// Stride over whole zero cachelines before falling back to words.
		for i+64 <= len(b) {
			c := b[i : i+64 : i+64]
			if binary.LittleEndian.Uint64(c)|binary.LittleEndian.Uint64(c[8:])|
				binary.LittleEndian.Uint64(c[16:])|binary.LittleEndian.Uint64(c[24:])|
				binary.LittleEndian.Uint64(c[32:])|binary.LittleEndian.Uint64(c[40:])|
				binary.LittleEndian.Uint64(c[48:])|binary.LittleEndian.Uint64(c[56:]) != 0 {
				break
			}
			zeroRun += 64
			i += 64
		}
		if i+8 > len(b) {
			break
		}
		w := binary.LittleEndian.Uint64(b[i:])
		if w == 0 {
			zeroRun += 8
			continue
		}
		if zeroRun > 0 {
			h *= fnvPrimePow(zeroRun)
			zeroRun = 0
		}
		for k := 0; k < 8; k++ {
			h ^= w >> (8 * k) & 0xff
			h *= fnvPrime
		}
	}
	if zeroRun > 0 {
		h *= fnvPrimePow(zeroRun)
	}
	for ; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime
	}
	return h
}

// wasmMemChecksum is memChecksum over a whole linear memory. Past the
// committed prefix the memory is zero bytes, which advance the hash by
// prime^n, so the zero tail is folded in without being read.
func wasmMemChecksum(mem *wasmvm.Memory) uint64 {
	b := mem.Bytes()
	return memChecksum(b) * fnvPrimePow(int(mem.Size())-len(b))
}

// fnvPrimePow returns fnvPrime**n (mod 2^64) by binary exponentiation.
func fnvPrimePow(n int) uint64 {
	r, p := uint64(1), fnvPrime
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			r *= p
		}
		p *= p
	}
	return r
}

// OutputStrings renders the output channel for differential comparison.
func (r *Result) OutputStrings() []string {
	out := make([]string, len(r.Output))
	for i, o := range r.Output {
		out[i] = o.String()
	}
	return out
}

// BindWasmImports installs the standard host environment on a Wasm VM,
// collecting print output into the returned slice.
func BindWasmImports(vm *wasmvm.VM) *[]codegen.OutputEvent {
	out := &[]codegen.OutputEvent{}
	bind := func(field string, fn wasmvm.HostFunc) {
		// Modules only declare the imports they use; ignore absent ones.
		// One declared with another signature stays unbound.
		_ = vm.BindImport("env", field, codegen.HostImportType(field), fn)
	}
	bind("print_i", func(_ *wasmvm.VM, args []uint64) ([]uint64, error) {
		*out = append(*out, codegen.OutputEvent{Kind: "i", I: int64(args[0])})
		return nil, nil
	})
	bind("print_f", func(_ *wasmvm.VM, args []uint64) ([]uint64, error) {
		*out = append(*out, codegen.OutputEvent{Kind: "f", F: wasmvm.AsF64(args[0])})
		return nil, nil
	})
	bind("print_s", func(v *wasmvm.VM, args []uint64) ([]uint64, error) {
		addr := uint32(args[0])
		var s []byte
		mem := v.Memory().Bytes()
		for int(addr) < len(mem) && mem[addr] != 0 {
			s = append(s, mem[addr])
			addr++
		}
		*out = append(*out, codegen.OutputEvent{Kind: "s", S: string(s)})
		return nil, nil
	})
	f1 := func(name string, fn func(float64) float64) {
		bind(name, func(_ *wasmvm.VM, args []uint64) ([]uint64, error) {
			return []uint64{wasmvm.F64(fn(wasmvm.AsF64(args[0])))}, nil
		})
	}
	f1("sin", math.Sin)
	f1("cos", math.Cos)
	f1("exp", math.Exp)
	f1("log", math.Log)
	bind("pow", func(_ *wasmvm.VM, args []uint64) ([]uint64, error) {
		return []uint64{wasmvm.F64(math.Pow(wasmvm.AsF64(args[0]), wasmvm.AsF64(args[1])))}, nil
	})
	bind("fmod", func(_ *wasmvm.VM, args []uint64) ([]uint64, error) {
		return []uint64{wasmvm.F64(math.Mod(wasmvm.AsF64(args[0]), wasmvm.AsF64(args[1])))}, nil
	})
	return out
}

// RunWasm executes the artifact's Wasm module under the given VM
// configuration and returns the measured result.
func RunWasm(art *Artifact, cfg wasmvm.Config) (*Result, error) {
	if art.Module == nil {
		return nil, fmt.Errorf("compiler: artifact has no wasm module")
	}
	vm, err := wasmvm.New(art.Module, len(art.WasmBinary), cfg)
	if err != nil {
		return nil, err
	}
	out := BindWasmImports(vm)
	if err := vm.Instantiate(); err != nil {
		return nil, err
	}
	return runWasmMain(vm, out)
}

// RunWasmPooled executes like RunWasm but checks the VM instance out of
// pool — the snapshot capture or a clone of it rather than a cold
// New+Instantiate — and hands it back afterwards, even when main traps.
// Virtual metrics are byte-identical to RunWasm by the snapshot
// determinism contract; only host wall-clock changes. A nil pool runs the
// cold path, and a saturated pool
// under PoolOptions.ColdFallback hands out a cold instance itself (see
// InstancePool.Get).
func RunWasmPooled(art *Artifact, cfg wasmvm.Config, pool *wasmvm.InstancePool) (*Result, error) {
	if pool == nil {
		return RunWasm(art, cfg)
	}
	if art.Module == nil {
		return nil, fmt.Errorf("compiler: artifact has no wasm module")
	}
	vm, _, err := pool.Get(cfg)
	if err != nil {
		return nil, err
	}
	out := BindWasmImports(vm)
	r, err := runWasmMain(vm, out)
	pool.Put(vm)
	if err != nil {
		return nil, err
	}
	r.VMPooled = true
	return r, nil
}

// runWasmMain calls main on an instantiated VM and assembles the Result.
func runWasmMain(vm *wasmvm.VM, out *[]codegen.OutputEvent) (*Result, error) {
	res, err := vm.Call("main")
	if err != nil {
		return nil, fmt.Errorf("wasm main: %w", err)
	}
	r := &Result{
		Output:      *out,
		Cycles:      vm.Cycles(),
		MemoryBytes: vm.PeakMemoryBytes(),
		WasmStats:   vm.Stats(),
	}
	if mem := vm.Memory(); mem != nil {
		r.MemChecksum = wasmMemChecksum(mem)
	}
	r.Steps = r.WasmStats.Steps
	r.GrowOps = r.WasmStats.GrowOps
	r.TierUps = r.WasmStats.TierUps
	r.Profiles = vm.Profile()
	if len(res) == 1 {
		r.Exit = wasmvm.AsI32(res[0])
	}
	return r, nil
}

// RunJS executes the artifact's JavaScript under the given engine
// configuration.
func RunJS(art *Artifact, cfg jsvm.Config) (*Result, error) {
	if art.JS == "" {
		return nil, fmt.Errorf("compiler: artifact has no JS")
	}
	vm := jsvm.New(cfg)
	if _, err := vm.Run(art.JS); err != nil {
		return nil, fmt.Errorf("js run: %w", err)
	}
	r := &Result{
		Cycles:        vm.Cycles(),
		Steps:         vm.Steps(),
		MemoryBytes:   vm.PeakHeapBytes(),
		ExternalBytes: vm.PeakExternalBytes(),
		GCs:           vm.GCCount(),
		TierUps:       vm.TierUps(),
		JSArith:       vm.ArithCounts(),
		Profiles:      vm.Profile(),
	}
	for _, o := range vm.Output {
		r.Output = append(r.Output, codegen.OutputEvent{Kind: o.Kind, I: o.I, F: o.F, S: o.S})
	}
	if v, ok := vm.Global("__exit"); ok {
		r.Exit = v.ToInt32()
	}
	return r, nil
}

// RunX86 executes the artifact's x86-like bytecode.
func RunX86(art *Artifact, cfg codegen.X86Config) (*Result, error) {
	if art.X86 == nil {
		return nil, fmt.Errorf("compiler: artifact has no x86 program")
	}
	vm := codegen.NewX86VM(art.X86, cfg)
	exit, err := vm.Run()
	if err != nil {
		return nil, fmt.Errorf("x86 main: %w", err)
	}
	return &Result{
		Exit:        int32(uint32(exit)),
		Output:      vm.Output,
		Cycles:      vm.Cycles(),
		Steps:       vm.Steps(),
		MemoryBytes: vm.PeakMemoryBytes(),
		MemChecksum: memChecksum(vm.Memory()),
	}, nil
}
