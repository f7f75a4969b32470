package wasmvm

import (
	"math"
	"reflect"
	"testing"

	"wasmbench/internal/obsv"
)

func tierUpEvents(coll *obsv.Collector) []obsv.Event {
	var out []obsv.Event
	for _, e := range coll.Events() {
		if e.Kind == obsv.KindTierUp {
			out = append(out, e)
		}
	}
	return out
}

// TestTierUpExactlyAtThreshold pins the boundary: with threshold T, the
// T-th entry (calls + loop back-edges) is the first that promotes, and
// repeat calls never promote again.
func TestTierUpExactlyAtThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TierUpThreshold = 5
	coll := &obsv.Collector{}
	cfg.Tracer = coll
	vm := newVM(t, cfg)

	for i := 0; i < 4; i++ {
		call1(t, vm, "add", I32(1), I32(2))
	}
	if got := vm.Stats().TierUps; got != 0 {
		t.Fatalf("after threshold-1 calls: TierUps = %d, want 0", got)
	}
	if n := len(tierUpEvents(coll)); n != 0 {
		t.Fatalf("after threshold-1 calls: %d KindTierUp events, want 0", n)
	}

	call1(t, vm, "add", I32(1), I32(2)) // hotness reaches exactly 5
	if got := vm.Stats().TierUps; got != 1 {
		t.Fatalf("at threshold: TierUps = %d, want 1", got)
	}

	for i := 0; i < 10; i++ {
		call1(t, vm, "add", I32(1), I32(2))
	}
	if got := vm.Stats().TierUps; got != 1 {
		t.Fatalf("after repeat calls: TierUps = %d, want 1", got)
	}
	if n := len(tierUpEvents(coll)); n != 1 {
		t.Fatalf("%d KindTierUp events, want 1", n)
	}
}

// TestTierModesNeverTierUp verifies the single-tier modes are pinned: no
// amount of hotness promotes, and no KindTierUp event is ever emitted.
func TestTierModesNeverTierUp(t *testing.T) {
	for _, mode := range []TierMode{TierBasicOnly, TierOptOnly} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.TierUpThreshold = 10
		coll := &obsv.Collector{}
		cfg.Tracer = coll
		vm := newVM(t, cfg)
		// Hot by both measures: many calls plus a long loop's back-edges.
		for i := 0; i < 50; i++ {
			call1(t, vm, "add", I32(1), I32(2))
		}
		call1(t, vm, "sum", I32(10000))
		if got := vm.Stats().TierUps; got != 0 {
			t.Errorf("mode %v: TierUps = %d, want 0", mode, got)
		}
		if n := len(tierUpEvents(coll)); n != 0 {
			t.Errorf("mode %v: %d KindTierUp events, want 0", mode, n)
		}
	}
}

// TestTierUpCompileChargedOnce drives the OSR path (promotion on a loop
// back-edge mid-call) and then re-enters the function, asserting the
// optimizing-compile charge lands exactly once: the cycle delta against a
// zero-charge run equals CompileOptPerInstr times the body length the
// KindTierUp event reports.
func TestTierUpCompileChargedOnce(t *testing.T) {
	run := func(perInstr float64) (*VM, *obsv.Collector) {
		cfg := DefaultConfig()
		cfg.TierUpThreshold = 500
		cfg.CompileOptPerInstr = perInstr
		coll := &obsv.Collector{}
		cfg.Tracer = coll
		vm := newVM(t, cfg)
		call1(t, vm, "sum", I32(100000)) // promotes on a back-edge mid-call
		call1(t, vm, "sum", I32(1000))   // re-entry must not charge again
		return vm, coll
	}

	const perInstr = 1000.0
	charged, coll := run(perInstr)
	free, _ := run(0)

	evs := tierUpEvents(coll)
	if len(evs) != 1 {
		t.Fatalf("%d KindTierUp events, want 1", len(evs))
	}
	if got := charged.Stats().TierUps; got != 1 {
		t.Fatalf("TierUps = %d, want 1", got)
	}
	want := perInstr * evs[0].A // A carries len(cf.code)
	got := charged.Cycles() - free.Cycles()
	if math.Abs(got-want) > 1e-3 {
		t.Fatalf("compile charge = %.6f cycles, want %.6f (exactly one charge of %.0f x %.0f instrs)",
			got, want, perInstr, evs[0].A)
	}
}

func aotCompileEvents(coll *obsv.Collector) []obsv.Event {
	var out []obsv.Event
	for _, e := range coll.Events() {
		if e.Kind == obsv.KindAOTCompile {
			out = append(out, e)
		}
	}
	return out
}

// TestAOTExactlyAtThreshold pins the AOT tier boundary in tiering mode,
// where the tier-up threshold is the only threshold left: with threshold T
// the T-th call is the first to compile and run superblocks, no call
// before it does, and repeat calls never compile again.
func TestAOTExactlyAtThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TierUpThreshold = 5
	coll := &obsv.Collector{}
	cfg.Tracer = coll
	vm := newVM(t, cfg)

	for i := 0; i < 4; i++ {
		call1(t, vm, "add", I32(1), I32(2))
	}
	if got := vm.AOTTranslated(); got != 0 {
		t.Fatalf("after threshold-1 calls: AOTTranslated = %d, want 0", got)
	}
	if got := vm.Stats().AOTCycles; got != 0 {
		t.Fatalf("after threshold-1 calls: AOTCycles = %v, want 0", got)
	}
	if n := len(aotCompileEvents(coll)); n != 0 {
		t.Fatalf("after threshold-1 calls: %d KindAOTCompile events, want 0", n)
	}

	call1(t, vm, "add", I32(1), I32(2)) // hotness reaches exactly 5
	if got := vm.AOTTranslated(); got != 1 {
		t.Fatalf("at threshold: AOTTranslated = %d, want 1", got)
	}
	if got := vm.Stats().AOTCycles; got == 0 {
		t.Fatal("at threshold: the boundary call should run on superblocks")
	}

	for i := 0; i < 10; i++ {
		call1(t, vm, "add", I32(1), I32(2))
	}
	if got := vm.AOTTranslated(); got != 1 {
		t.Fatalf("after repeat calls: AOTTranslated = %d, want 1", got)
	}
	if n := len(aotCompileEvents(coll)); n != 1 {
		t.Fatalf("%d KindAOTCompile events, want 1", n)
	}
	if s := vm.Stats(); s.AOTCycles != s.OptCycles {
		t.Errorf("every optimizing-tier call should run on superblocks: AOTCycles %v, OptCycles %v", s.AOTCycles, s.OptCycles)
	}
}

// TestAOTFromFirstCallOptOnly pins the opt-only entry: with no basic tier
// there is no threshold to cross, so a function called once runs its hot
// loop on AOT superblocks from its first instruction — and measures exactly
// what the stack loop measures under the same cost table.
func TestAOTFromFirstCallOptOnly(t *testing.T) {
	run := func(disableAOT bool) (*VM, *obsv.Collector) {
		cfg := DefaultConfig()
		cfg.Mode = TierOptOnly
		cfg.DisableAOTTier = disableAOT
		coll := &obsv.Collector{}
		cfg.Tracer = coll
		vm := newVM(t, cfg)
		if got := AsI64(call1(t, vm, "sum", I32(100000))); got != 4999950000 {
			t.Fatalf("sum = %d", got)
		}
		return vm, coll
	}
	aot, acoll := run(false)
	stack, scoll := run(true)
	if got := aot.AOTTranslated(); got != 1 {
		t.Fatalf("AOTTranslated = %d after one call, want 1", got)
	}
	evs := aotCompileEvents(acoll)
	if len(evs) != 1 {
		t.Fatalf("%d KindAOTCompile events, want 1", len(evs))
	}
	// Compiled at call entry: nothing but instantiation has been charged.
	if enter := acoll.Events()[0]; enter.Kind != obsv.KindCallEnter || evs[0].TS != enter.TS {
		t.Errorf("AOT compile at %v, want at call entry %+v", evs[0].TS, enter)
	}
	as, ss := aot.Stats(), stack.Stats()
	if as.AOTCycles != as.OptCycles || as.OptCycles == 0 {
		t.Errorf("the whole call should run on superblocks: %+v", as)
	}
	if aot.Cycles() != stack.Cycles() {
		t.Errorf("cycles differ: aot=%v stack=%v", aot.Cycles(), stack.Cycles())
	}
	as.AOTCycles = 0
	if as != ss {
		t.Errorf("stats differ:\n  aot:   %+v\n  stack: %+v", as, ss)
	}
	if ap, sp := aot.Profile(), stack.Profile(); !reflect.DeepEqual(ap, sp) {
		t.Errorf("profiles differ:\n  aot:   %+v\n  stack: %+v", ap, sp)
	}
	if ae := stripAOTCompile(acoll.Events()); !reflect.DeepEqual(ae, scoll.Events()) {
		t.Error("trace streams differ beyond the aot-compile marker")
	}
}

// TestAOTPinnedOff verifies the AOT tier stays off where it must: under
// DisableAOTTier and in basic-only mode (nothing ever reaches the
// optimizing tier), no amount of hotness produces a superblock or an
// event.
func TestAOTPinnedOff(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"disabled", func(c *Config) { c.DisableAOTTier = true }},
		{"basic-only", func(c *Config) { c.Mode = TierBasicOnly }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.TierUpThreshold = 10
			coll := &obsv.Collector{}
			cfg.Tracer = coll
			tc.mut(&cfg)
			vm := newVM(t, cfg)
			for i := 0; i < 50; i++ {
				call1(t, vm, "add", I32(1), I32(2))
			}
			call1(t, vm, "sum", I32(10000))
			if got := vm.AOTTranslated(); got != 0 {
				t.Errorf("AOTTranslated = %d, want 0", got)
			}
			if got := vm.Stats().AOTCycles; got != 0 {
				t.Errorf("AOTCycles = %v, want 0", got)
			}
			if n := len(aotCompileEvents(coll)); n != 0 {
				t.Errorf("%d KindAOTCompile events, want 0", n)
			}
		})
	}
}

// TestAOTOSRMidLoop pins the tiering entry: the back-edge that promotes a
// running loop moves the frame into the AOT dispatcher by OSR, compiling
// at the tier-up instant and resuming at the same pc. Resuming anywhere
// else would skip or repeat instructions, so steps, the basic/opt cycle
// split, and the result must all equal a stack-loop run's.
func TestAOTOSRMidLoop(t *testing.T) {
	run := func(disableAOT bool) (*VM, *obsv.Collector, uint64) {
		cfg := DefaultConfig()
		cfg.TierUpThreshold = 500
		cfg.DisableAOTTier = disableAOT
		coll := &obsv.Collector{}
		cfg.Tracer = coll
		vm := newVM(t, cfg)
		res := call1(t, vm, "sum", I32(100000))
		return vm, coll, res
	}
	vm, coll, res := run(false)
	stack, _, sres := run(true)
	if got := vm.Stats().TierUps; got != 1 {
		t.Fatalf("TierUps = %d, want 1", got)
	}
	if got := vm.AOTTranslated(); got != 1 {
		t.Fatalf("AOTTranslated = %d, want 1", got)
	}
	if got := vm.Stats().AOTCycles; got == 0 {
		t.Fatal("mid-loop OSR charged no AOT cycles")
	}
	evs := aotCompileEvents(coll)
	if len(evs) != 1 {
		t.Fatalf("%d KindAOTCompile events, want 1", len(evs))
	}
	if evs[0].A <= 0 || evs[0].B <= 0 {
		t.Errorf("compile event payload wrong: %+v", evs[0])
	}
	if ups := tierUpEvents(coll); len(ups) != 1 || ups[0].TS != evs[0].TS {
		t.Errorf("AOT compile at %v, want at the tier-up instant %+v", evs[0].TS, ups)
	}
	s, ss := vm.Stats(), stack.Stats()
	if res != sres || s.Steps != ss.Steps || s.BasicCycles != ss.BasicCycles || s.OptCycles != ss.OptCycles {
		t.Errorf("OSR resumed off the stack loop's path:\n  aot:   res=%d %+v\n  stack: res=%d %+v", res, s, sres, ss)
	}
}

// TestAOTCompileChargesNoCycles pins the AOT compile's virtual cost at
// zero: unlike tier-up, the register-form and superblock translation is
// invisible to the virtual clock, so an AOT run and a stack-loop run of
// the same workload read identical cycles.
func TestAOTCompileChargesNoCycles(t *testing.T) {
	run := func(disableAOT bool) *VM {
		cfg := DefaultConfig()
		cfg.TierUpThreshold = 500
		cfg.DisableAOTTier = disableAOT
		vm := newVM(t, cfg)
		call1(t, vm, "sum", I32(100000))
		call1(t, vm, "sum", I32(1000))
		return vm
	}
	aot := run(false)
	stack := run(true)
	if aot.AOTTranslated() != 1 {
		t.Fatalf("AOTTranslated = %d, want 1", aot.AOTTranslated())
	}
	if aot.Cycles() != stack.Cycles() {
		t.Fatalf("AOT compile leaked into the virtual clock: aot=%v stack=%v",
			aot.Cycles(), stack.Cycles())
	}
}
