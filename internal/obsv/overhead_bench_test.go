// Overhead check for the tracing hooks on the wasmvm interpreter hot path.
// The package is obsv_test (not obsv) because it builds a real module via
// the compiler, which itself imports obsv.
//
// Run with:
//
//	go test -bench Interp -benchtime 5x ./internal/obsv/
//
// BenchmarkInterpBaseline measures the seed configuration (no tracer, no
// profiling — the per-instruction guard reduces to one nil pointer check);
// BenchmarkInterpProfiled measures the same run with profiling enabled and
// BenchmarkInterpTraced with a collector attached. The observability
// contract is that Baseline stays within ~2% of the pre-instrumentation
// interpreter; TestNilTracerGuardIsCheap asserts the cheap-path invariant
// structurally by comparing instruction throughput.
package obsv_test

import (
	"testing"

	"wasmbench/internal/compiler"
	"wasmbench/internal/ir"
	"wasmbench/internal/obsv"
	"wasmbench/internal/telemetry"
	"wasmbench/internal/wasm"
	"wasmbench/internal/wasmvm"
)

const benchSrc = `
int A[40000];
int main() {
  int i; int t; int acc;
  acc = 0;
  for (t = 0; t < 40; t = t + 1) {
    for (i = 0; i < 40000; i = i + 1) {
      A[i] = A[i] + i % 7;
    }
    for (i = 0; i < 40000; i = i + 1) {
      acc = acc + A[i];
    }
  }
  return acc & 255;
}
`

func buildModule(tb testing.TB) (*wasm.Module, int) {
	tb.Helper()
	art, err := compiler.Compile(benchSrc, compiler.Options{
		Opt: ir.O2, Targets: []compiler.Target{compiler.TargetWasm}})
	if err != nil {
		tb.Fatal(err)
	}
	return art.Module, len(art.WasmBinary)
}

func runOnce(tb testing.TB, mod *wasm.Module, size int, cfg wasmvm.Config) *wasmvm.VM {
	tb.Helper()
	vm, err := wasmvm.New(mod, size, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	compiler.BindWasmImports(vm)
	if err := vm.Instantiate(); err != nil {
		tb.Fatal(err)
	}
	if _, err := vm.Call("main"); err != nil {
		tb.Fatal(err)
	}
	return vm
}

func BenchmarkInterpBaseline(b *testing.B) {
	mod, size := buildModule(b)
	cfg := wasmvm.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce(b, mod, size, cfg)
	}
}

func BenchmarkInterpProfiled(b *testing.B) {
	mod, size := buildModule(b)
	cfg := wasmvm.DefaultConfig()
	cfg.Profile = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce(b, mod, size, cfg)
	}
}

func BenchmarkInterpTraced(b *testing.B) {
	mod, size := buildModule(b)
	cfg := wasmvm.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coll := &obsv.Collector{}
		cfg.Tracer = coll
		runOnce(b, mod, size, cfg)
	}
}

// BenchmarkInterpInstrumented measures the live-telemetry configuration:
// VM instruments attached to a registry (bulk counters flush per exported
// call; rare events update at their hook sites). The contract is that this
// stays within noise of Baseline — the dispatch loop carries no telemetry
// writes.
func BenchmarkInterpInstrumented(b *testing.B) {
	mod, size := buildModule(b)
	cfg := wasmvm.DefaultConfig()
	cfg.Instruments = telemetry.NewVMInstruments(telemetry.NewRegistry())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce(b, mod, size, cfg)
	}
}

// BenchmarkRegistryCounterAdd is the raw instrument hot path: one striped
// float add per op, contended across GOMAXPROCS goroutines (the shape of
// per-call cycle flushes from a worker pool).
func BenchmarkRegistryCounterAdd(b *testing.B) {
	c := telemetry.NewRegistry().Counter("bench_total", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1.5)
		}
	})
	if c.Value() <= 0 {
		b.Fatal("counter lost updates")
	}
}

// TestNilTelemetryAllocationFree proves the disabled telemetry path adds
// zero allocations: every hook the VMs, toolchain, and harness call on nil
// instruments must not allocate (they reduce to one branch).
func TestNilTelemetryAllocationFree(t *testing.T) {
	var (
		vmInst   *telemetry.VMInstruments
		c        *telemetry.Counter
		g        *telemetry.Gauge
		h        *telemetry.Histogram
		f        *obsv.Collector
		hub      *telemetry.Hub
		sinkT    obsv.Tracer
		sinkR    *telemetry.Registry
		sinkProf []obsv.FuncProfile
	)
	allocs := testing.AllocsPerRun(1000, func() {
		// The exact calls instrumented code makes, on the disabled path.
		c.Inc()
		c.Add(123.5)
		g.Set(1)
		g.SetMax(2)
		h.Observe(0.5)
		f.Emit(obsv.Event{Kind: obsv.KindTierUp})
		sinkT = hub.Tracer()
		sinkR = hub.Registry()
		sinkProf = hub.Profiles()
		if vmInst != nil { // the hook-site guard itself
			vmInst.TierUps.Inc()
		}
	})
	_, _, _ = sinkT, sinkR, sinkProf
	if allocs != 0 {
		t.Fatalf("nil-telemetry hooks allocate %v times per run, want 0", allocs)
	}
}

// TestInstrumentsPreserveVirtualMetrics is the whole-VM form of the same
// contract: attaching instruments must leave every virtual metric
// byte-identical — instruments observe the clock, they never feed it.
func TestInstrumentsPreserveVirtualMetrics(t *testing.T) {
	mod, size := buildModule(t)
	off := runOnce(t, mod, size, wasmvm.DefaultConfig())

	reg := telemetry.NewRegistry()
	cfg := wasmvm.DefaultConfig()
	cfg.Instruments = telemetry.NewVMInstruments(reg)
	on := runOnce(t, mod, size, cfg)

	if off.Cycles() != on.Cycles() {
		t.Fatalf("instruments changed virtual time: %v vs %v", off.Cycles(), on.Cycles())
	}
	if off.Stats() != on.Stats() {
		t.Fatalf("instruments changed stats:\noff %+v\non  %+v", off.Stats(), on.Stats())
	}
	// And the instruments saw the run they watched.
	snap := reg.Snapshot()
	vals := map[string]float64{}
	for _, m := range snap.Metrics {
		vals[m.Name] = m.Value
	}
	if got := vals["wasm_steps_total"]; got != float64(on.Stats().Steps) {
		t.Fatalf("wasm_steps_total = %v, VM counted %d", got, on.Stats().Steps)
	}
	if got := vals["wasm_runs_total"]; got != 1 {
		t.Fatalf("wasm_runs_total = %v, want 1", got)
	}
}

// TestNilTracerGuardIsCheap verifies the disabled-path contract without
// relying on wall-clock timing (which is too noisy for CI): with tracing
// off, the VM must take the exact same virtual-cycle path as the seed —
// identical cycles, steps, and results — and must not retain any profile
// state.
func TestNilTracerGuardIsCheap(t *testing.T) {
	mod, size := buildModule(t)
	off := runOnce(t, mod, size, wasmvm.DefaultConfig())
	if got := off.Profile(); got != nil {
		t.Fatalf("disabled VM retained %d profiles", len(got))
	}

	cfg := wasmvm.DefaultConfig()
	cfg.Profile = true
	on := runOnce(t, mod, size, cfg)
	if off.Cycles() != on.Cycles() {
		t.Fatalf("profiling changed virtual time: %v vs %v", off.Cycles(), on.Cycles())
	}
	if off.Stats().Steps != on.Stats().Steps {
		t.Fatalf("profiling changed step count: %d vs %d", off.Stats().Steps, on.Stats().Steps)
	}
	profs := on.Profile()
	if len(profs) == 0 {
		t.Fatal("profiled VM produced no function profiles")
	}
	var total float64
	for _, p := range profs {
		total += p.SelfCycles
	}
	// Self cycles across all functions sum to the in-call portion of the
	// run: everything except module decode/instantiate setup, which is
	// charged outside any frame. It must never exceed the clock, and for
	// this compute-bound kernel it covers essentially all of it.
	if total > on.Cycles()+1e-6 {
		t.Fatalf("self-cycle sum %v exceeds total cycles %v", total, on.Cycles())
	}
	if total < 0.99*on.Cycles() {
		t.Fatalf("self-cycle sum %v covers <99%% of total cycles %v", total, on.Cycles())
	}
}
