package wasmvm

import (
	"errors"
	"testing"

	"wasmbench/internal/obsv"
	"wasmbench/internal/wasm"
)

// runAOTPair instantiates the module twice — AOT tier enabled and disabled
// — applies call, and returns both VMs for comparison. The caller's cfg
// sets the tier mode and threshold; the pair differs only in
// DisableAOTTier, so any divergence between AOT superblocks and the stack
// loop is the superblock dispatcher's fault. With unpaired set, the AOT
// side compiles the 1:1 register form instead of the paired one.
func runAOTPair(t *testing.T, m *wasm.Module, cfg Config, unpaired bool, call func(vm *VM) ([]uint64, error)) (aot, stack *VM, ares, sres []uint64, aerr, serr error) {
	t.Helper()
	mk := func(disable bool) (*VM, []uint64, error) {
		c := cfg
		c.DisableAOTTier = disable
		vm, err := New(m, 0, c)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := vm.Instantiate(); err != nil {
			t.Fatalf("Instantiate: %v", err)
		}
		if unpaired && !disable {
			seedUnpaired(vm)
		}
		res, err := call(vm)
		return vm, res, err
	}
	aot, ares, aerr = mk(false)
	stack, sres, serr = mk(true)
	return
}

// stripAOTCompile removes KindAOTCompile events: the compile marker only
// exists on the AOT side of a pair, and (like KindTierUp's absence in
// opt-only mode) it is the one permitted stream difference.
func stripAOTCompile(events []obsv.Event) []obsv.Event {
	var out []obsv.Event
	for _, e := range events {
		if e.Kind != obsv.KindAOTCompile {
			out = append(out, e)
		}
	}
	return out
}

func TestAOTTierTranslates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TierUpThreshold = 100
	vm := newVM(t, cfg)
	call1(t, vm, "sum", I32(200000))
	if vm.AOTTranslated() == 0 {
		t.Fatal("hot loop should have produced an AOT body")
	}
	if vm.AOTSuperblocks() == 0 {
		t.Fatal("AOT body reported zero superblocks")
	}
	if vm.Stats().AOTCycles == 0 {
		t.Fatal("AOT dispatcher charged no cycles")
	}

	cfg.DisableAOTTier = true
	vm2 := newVM(t, cfg)
	call1(t, vm2, "sum", I32(200000))
	if vm2.AOTTranslated() != 0 {
		t.Errorf("DisableAOTTier left %d AOT bodies", vm2.AOTTranslated())
	}

	// StepLimit keeps the optimizing tier on the stack loop.
	cfg = DefaultConfig()
	cfg.TierUpThreshold = 100
	cfg.StepLimit = 1 << 40
	vm3 := newVM(t, cfg)
	call1(t, vm3, "sum", I32(200000))
	if vm3.AOTTranslated() != 0 {
		t.Errorf("StepLimit should disable the AOT tier, got %d bodies", vm3.AOTTranslated())
	}
}

// TestAOTEquivalenceMatrix sweeps every exported function of the shared
// test module across tier modes and register-form shapes (paired "fused"
// and 1:1 "unfused"), comparing the AOT superblock dispatcher against the
// stack loop on results, cycles, and the full Stats struct. AOTCycles —
// the deliberate dispatcher-visible sub-split — is the one field
// assertEquivalent excludes.
func TestAOTEquivalenceMatrix(t *testing.T) {
	calls := []struct {
		name string
		args []uint64
	}{
		{"add", []uint64{I32(2), I32(40)}},
		{"sum", []uint64{I32(200000)}}, // crosses the tier-up threshold mid-loop
		{"fib", []uint64{I32(15)}},
		{"hypot", []uint64{F64(3), F64(4)}},
		{"memtest", []uint64{I32(1024)}},
		{"grow", []uint64{I32(2)}},
		{"switcher", []uint64{I32(1)}},
	}
	for _, mode := range []struct {
		name string
		mode TierMode
	}{{"both", TierBoth}, {"basic", TierBasicOnly}, {"opt", TierOptOnly}} {
		for _, form := range []struct {
			name     string
			unpaired bool
		}{{"fused", false}, {"unfused", true}} {
			for _, c := range calls {
				t.Run(mode.name+"/"+form.name+"/"+c.name, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Mode = mode.mode
					cfg.TierUpThreshold = 100
					aot, stack, ares, sres, aerr, serr := runAOTPair(t, buildModule(), cfg, form.unpaired,
						func(vm *VM) ([]uint64, error) { return vm.Call(c.name, c.args...) })
					assertEquivalent(t, aot, stack, ares, sres, aerr, serr)
					// Engagement: opt-only runs every call on superblocks;
					// in tiering mode the single-call sum loop gets there by
					// OSR and the deeply recursive fib by call hotness.
					switch {
					case mode.mode == TierOptOnly && aot.AOTTranslated() == 0:
						t.Error("opt-only mode should run AOT superblocks from the first call")
					case mode.mode == TierOptOnly && aot.Stats().AOTCycles != aot.Stats().OptCycles:
						t.Errorf("opt-only AOTCycles %v != OptCycles %v", aot.Stats().AOTCycles, aot.Stats().OptCycles)
					case mode.mode == TierBoth && (c.name == "sum" || c.name == "fib") && aot.AOTTranslated() == 0:
						t.Errorf("hot %s should tier up into AOT superblocks", c.name)
					case mode.mode == TierBasicOnly && aot.AOTTranslated() != 0:
						t.Error("basic-only mode must never AOT-compile")
					}
					if s := aot.Stats(); s.AOTCycles > s.OptCycles {
						t.Errorf("AOTCycles %v exceeds OptCycles %v", s.AOTCycles, s.OptCycles)
					}
					if s := stack.Stats(); s.AOTCycles != 0 {
						t.Errorf("AOT-disabled VM charged AOTCycles %v", s.AOTCycles)
					}
				})
			}
		}
	}
}

// TestAOTEquivalenceStack runs two workloads back to back — a tiering loop
// and hot recursion — on the AOT-enabled VM and on the plain stack loop.
// Cycles, steps, tallies — everything but the AOTCycles sub-split — must
// survive the dispatcher switch.
func TestAOTEquivalenceStack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TierUpThreshold = 100
	aot, stack, ares, sres, aerr, serr := runAOTPair(t, buildModule(), cfg, false,
		func(vm *VM) ([]uint64, error) {
			if _, err := vm.Call("sum", I32(200000)); err != nil {
				return nil, err
			}
			return vm.Call("fib", I32(14))
		})
	assertEquivalent(t, aot, stack, ares, sres, aerr, serr)
	if aot.AOTTranslated() == 0 {
		t.Fatal("AOT tier never engaged")
	}
	if stack.AOTTranslated() != 0 {
		t.Fatal("stack side must not AOT-compile")
	}
}

// TestAOTEquivalenceOSR pins on-stack replacement into superblocks: one
// call crosses the tier-up threshold mid-loop and must resume in the AOT
// body at the same pc, and a second call starts in superblock form
// directly.
func TestAOTEquivalenceOSR(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TierUpThreshold = 500
	aot, stack, ares, sres, aerr, serr := runAOTPair(t, buildModule(), cfg, false,
		func(vm *VM) ([]uint64, error) {
			if _, err := vm.Call("sum", I32(100000)); err != nil {
				return nil, err
			}
			return vm.Call("sum", I32(1000))
		})
	assertEquivalent(t, aot, stack, ares, sres, aerr, serr)
	if aot.Stats().TierUps != 1 {
		t.Fatalf("expected exactly one tier-up, got %d", aot.Stats().TierUps)
	}
	if aot.AOTTranslated() != 1 {
		t.Fatalf("expected one AOT body, got %d", aot.AOTTranslated())
	}
	if aot.Stats().AOTCycles == 0 {
		t.Fatal("OSR run charged no AOT cycles")
	}
	if AsI64(ares[0]) != 499500 {
		t.Errorf("post-OSR result wrong: %d", AsI64(ares[0]))
	}
}

// TestAOTEquivalenceTraces runs a profiled, traced, tiering workload with
// the AOT tier on and off (stack loop). Apart from the KindAOTCompile
// markers (present only on the AOT side, by design), the two event
// streams — call enter/exit, tier-up, memory.grow, every virtual
// timestamp — must be identical.
func TestAOTEquivalenceTraces(t *testing.T) {
	mk := func(disable bool) (*VM, *obsv.Collector) {
		cfg := DefaultConfig()
		cfg.TierUpThreshold = 100
		cfg.DisableAOTTier = disable
		coll := &obsv.Collector{}
		cfg.Tracer = coll
		vm, err := New(buildModule(), 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Instantiate(); err != nil {
			t.Fatal(err)
		}
		if _, err := vm.Call("sum", I32(50000)); err != nil {
			t.Fatal(err)
		}
		if _, err := vm.Call("fib", I32(12)); err != nil {
			t.Fatal(err)
		}
		if _, err := vm.Call("grow", I32(2)); err != nil {
			t.Fatal(err)
		}
		return vm, coll
	}
	aot, acoll := mk(false)
	stack, scoll := mk(true)
	if aot.Cycles() != stack.Cycles() {
		t.Errorf("cycles differ: aot=%v stack=%v", aot.Cycles(), stack.Cycles())
	}
	if aot.AOTTranslated() == 0 {
		t.Fatal("trace test should exercise the AOT tier")
	}
	ae, se := stripAOTCompile(acoll.Events()), scoll.Events()
	if n := len(acoll.Events()) - len(ae); n != aot.AOTTranslated() {
		t.Errorf("%d KindAOTCompile events for %d translations", n, aot.AOTTranslated())
	}
	if len(ae) != len(se) {
		t.Fatalf("trace lengths differ after stripping aot-compile: aot=%d stack=%d", len(ae), len(se))
	}
	for i := range ae {
		if ae[i] != se[i] {
			t.Fatalf("trace event %d differs:\n  aot:   %+v\n  stack: %+v", i, ae[i], se[i])
		}
	}
}

// TestAOTEquivalenceProfiles compares per-function profiles (calls, self
// and total cycles, class mix) between the AOT and stack dispatchers.
func TestAOTEquivalenceProfiles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Profile = true
	cfg.TierUpThreshold = 100
	aot, stack, ares, sres, aerr, serr := runAOTPair(t, buildModule(), cfg, false,
		func(vm *VM) ([]uint64, error) {
			if _, err := vm.Call("fib", I32(14)); err != nil {
				return nil, err
			}
			return vm.Call("sum", I32(50000))
		})
	assertEquivalent(t, aot, stack, ares, sres, aerr, serr)
	if aot.AOTTranslated() == 0 {
		t.Fatal("profile test should exercise the AOT tier")
	}
	ap, rp := aot.Profile(), stack.Profile()
	if len(ap) != len(rp) {
		t.Fatalf("profile lengths differ: %d vs %d", len(ap), len(rp))
	}
	for i := range ap {
		if ap[i].Name != rp[i].Name || ap[i].SelfCycles != rp[i].SelfCycles ||
			ap[i].TotalCycles != rp[i].TotalCycles || ap[i].Calls != rp[i].Calls {
			t.Errorf("profile %d differs:\n  aot:   %+v\n  stack: %+v", i, ap[i], rp[i])
		}
		if len(ap[i].Classes) != len(rp[i].Classes) {
			t.Fatalf("profile %d class mix length differs", i)
		}
		for j := range ap[i].Classes {
			if ap[i].Classes[j] != rp[i].Classes[j] {
				t.Errorf("profile %d class %d differs: %+v vs %+v",
					i, j, ap[i].Classes[j], rp[i].Classes[j])
			}
		}
	}
}

// TestAOTTrapEquivalence drives superblocks into traps — const+div-by-zero
// and get+load out of bounds, as pairs ("fused") and as standalone ops
// ("unfused") — in opt-only mode so the superblock form executes from the
// very first call. The partial charges at the trap point (including the
// suffix rollback of the hoisted block accounting) must match the stack
// loop exactly.
func TestAOTTrapEquivalence(t *testing.T) {
	for _, form := range []struct {
		name     string
		unpaired bool
	}{{"fused", false}, {"unfused", true}} {
		for _, c := range []struct {
			name string
			arg  uint64
			want error
		}{
			{"divz", I32(7), ErrDivByZero},
			{"oob", I32(1 << 30), nil}, // OOB trap type, checked by message equality
		} {
			t.Run(form.name+"/"+c.name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Mode = TierOptOnly
				aot, stack, ares, sres, aerr, serr := runAOTPair(t, trapModule(), cfg, form.unpaired,
					func(vm *VM) ([]uint64, error) { return vm.Call(c.name, c.arg) })
				if aerr == nil || serr == nil {
					t.Fatalf("expected traps, got aot=%v stack=%v", aerr, serr)
				}
				if c.want != nil && !errors.Is(aerr, c.want) {
					t.Fatalf("aot trap = %v, want %v", aerr, c.want)
				}
				if aot.AOTTranslated() == 0 {
					t.Fatal("trap test should execute AOT superblocks")
				}
				assertEquivalent(t, aot, stack, ares, sres, aerr, serr)
			})
		}
	}
}

// TestAOTBranchIntoPair re-runs the pair landing-pad module through the
// superblock translator: a branch into the second slot of a pair makes
// that slot a leader, so the pair's components get standalone closures in
// the target block (overlapping the paired block that falls through
// them).
func TestAOTBranchIntoPair(t *testing.T) {
	for _, x := range []int32{0, 3} {
		cfg := DefaultConfig()
		cfg.Mode = TierOptOnly
		aot, stack, ares, sres, aerr, serr := runAOTPair(t, landingModule(), cfg, false,
			func(vm *VM) ([]uint64, error) { return vm.Call("landing", I32(x)) })
		assertEquivalent(t, aot, stack, ares, sres, aerr, serr)
		if aot.AOTTranslated() == 0 {
			t.Fatal("landing module should run AOT superblocks")
		}
		want := x + 5
		if x == 0 {
			want = 100
		}
		if AsI32(ares[0]) != want {
			t.Errorf("landing(%d) = %d, want %d", x, AsI32(ares[0]), want)
		}
	}
}

// TestAOTCycleSubSplit checks the accounting shape: basic-only runs
// charge only BasicCycles, opt-only runs only OptCycles (all of it on AOT
// superblocks), a tiering run splits across both, and AOTCycles is a
// sub-split of OptCycles (never of BasicCycles) that disabling the AOT
// tier zeroes without touching the basic/opt split.
func TestAOTCycleSubSplit(t *testing.T) {
	run := func(mode TierMode, disableAOT bool) Stats {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.TierUpThreshold = 100
		cfg.DisableAOTTier = disableAOT
		vm := newVM(t, cfg)
		call1(t, vm, "sum", I32(50000))
		return vm.Stats()
	}
	if basic := run(TierBasicOnly, false); basic.OptCycles != 0 || basic.BasicCycles == 0 || basic.AOTCycles != 0 {
		t.Errorf("basic-only split wrong: %+v", basic)
	}
	if opt := run(TierOptOnly, false); opt.BasicCycles != 0 || opt.OptCycles == 0 || opt.AOTCycles != opt.OptCycles {
		t.Errorf("opt-only split wrong: %+v", opt)
	}
	aot := run(TierBoth, false)
	if aot.BasicCycles == 0 || aot.OptCycles == 0 {
		t.Errorf("tiering run should split across tiers: %+v", aot)
	}
	if aot.AOTCycles == 0 {
		t.Errorf("AOT dispatcher charged nothing: %+v", aot)
	}
	if aot.AOTCycles > aot.OptCycles {
		t.Errorf("AOTCycles %v exceeds OptCycles %v", aot.AOTCycles, aot.OptCycles)
	}
	stack := run(TierBoth, true)
	if stack.AOTCycles != 0 {
		t.Errorf("AOT disabled but AOTCycles = %v", stack.AOTCycles)
	}
	if stack.BasicCycles != aot.BasicCycles || stack.OptCycles != aot.OptCycles {
		t.Errorf("basic/opt split changed by the AOT tier:\n  aot:   %+v\n  stack: %+v", aot, stack)
	}
}

// TestAOTTranslateFaultBail pins the bail path: with the AOT tier
// disabled (the same fallback a conservative translation bail takes) the
// optimizing tier silently stays on the stack loop — identical results
// and metrics, zero AOT translations and AOT cycles.
func TestAOTTranslateFaultBail(t *testing.T) {
	run := func(disable bool) *VM {
		cfg := DefaultConfig()
		cfg.TierUpThreshold = 100
		cfg.DisableAOTTier = disable
		vm := newVM(t, cfg)
		call1(t, vm, "sum", I32(200000))
		return vm
	}
	bailed := run(true)
	clean := run(false)

	if bailed.AOTTranslated() != 0 {
		t.Errorf("disabled AOT tier still produced %d AOT bodies", bailed.AOTTranslated())
	}
	if s := bailed.Stats(); s.AOTCycles != 0 || s.OptCycles == 0 {
		t.Errorf("stack fallback should charge the optimizing tier without AOT: %+v", s)
	}
	if clean.AOTTranslated() == 0 {
		t.Fatal("clean run should AOT-compile")
	}
	fs, cs := bailed.Stats(), clean.Stats()
	fs.AOTCycles, cs.AOTCycles = 0, 0
	if fs != cs {
		t.Errorf("bail changed metrics:\n  bailed: %+v\n  clean:  %+v", fs, cs)
	}
	if bailed.Cycles() != clean.Cycles() {
		t.Errorf("bail changed the virtual clock: %v vs %v", bailed.Cycles(), clean.Cycles())
	}
}
