package wasmvm

import (
	"reflect"
	"testing"

	"wasmbench/internal/faultinject"
	"wasmbench/internal/wasm"
)

// runRegPair instantiates the module twice — once with the optimizing
// tier's register translation allowed (AOT superblocks over the paired
// register form, or the 1:1 form with unpaired set) and once with every
// translation denied at wasm.aot-translate, so the stack loop serves the
// optimizing tier through the bail path under OptCost — applies call, and
// returns both VMs plus the denial plan.
func runRegPair(t *testing.T, m *wasm.Module, cfg Config, unpaired bool, call func(vm *VM) ([]uint64, error)) (reg, denied *VM, rres, dres []uint64, rerr, derr error, plan *faultinject.Plan) {
	t.Helper()
	plan = faultinject.NewPlan(7, faultinject.Rule{Point: faultinject.WasmAOTTranslate, Prob: 1})
	mk := func(deny bool) (*VM, []uint64, error) {
		c := cfg
		if deny {
			c.Faults = plan
		}
		vm, err := New(m, 0, c)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := vm.Instantiate(); err != nil {
			t.Fatalf("Instantiate: %v", err)
		}
		if unpaired && !deny {
			seedUnpaired(vm)
		}
		res, err := call(vm)
		return vm, res, err
	}
	reg, rres, rerr = mk(false)
	denied, dres, derr = mk(true)
	return
}

// landingModule holds a block whose br_if lands on a local.get that the
// register translation pairs with the local.get after it.
func landingModule() *wasm.Module {
	m := &wasm.Module{}
	ti := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	m.Funcs = append(m.Funcs, wasm.Function{Type: ti, Name: "landing",
		Locals: []wasm.ValType{wasm.I32},
		Body: []wasm.Instr{
			{Op: wasm.OpI32Const, Val: 5}, {Op: wasm.OpLocalSet, A: 1},
			{Op: wasm.OpBlock, BlockType: wasm.BlockNone},
			{Op: wasm.OpLocalGet, A: 0},
			{Op: wasm.OpBrIf, A: 0},
			{Op: wasm.OpI32Const, Val: 100}, {Op: wasm.OpLocalSet, A: 1},
			{Op: wasm.OpEnd},
			{Op: wasm.OpLocalGet, A: 0},
			{Op: wasm.OpLocalGet, A: 1},
			{Op: wasm.OpI32Add},
			{Op: wasm.OpEnd},
		}})
	m.Exports = append(m.Exports, wasm.Export{Name: "landing", Kind: wasm.ExportFunc, Idx: 0})
	return m
}

// TestRegEquivalenceMatrix sweeps every exported function of the shared
// test module across tier modes and register-form shapes (paired "fused"
// and 1:1 "unfused"). The optimizing tier run on the register form must
// measure exactly what it measures when the register translation is
// denied and the stack loop serves it instead: results, cycles, and the
// full Stats struct bar the AOTCycles sub-split. The denial fires once per
// function that reaches the optimizing tier, and never in basic-only mode.
func TestRegEquivalenceMatrix(t *testing.T) {
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
					reg, denied, rres, dres, rerr, derr, plan := runRegPair(t, buildModule(), cfg, form.unpaired,
						func(vm *VM) ([]uint64, error) { return vm.Call(c.name, c.args...) })
					assertEquivalent(t, reg, denied, rres, dres, rerr, derr)
					if n := denied.AOTTranslated(); n != 0 {
						t.Errorf("denied translation still produced %d AOT bodies", n)
					}
					if s := denied.Stats(); s.AOTCycles != 0 {
						t.Errorf("denied VM charged AOTCycles %v", s.AOTCycles)
					}
					fired := plan.Counts()[faultinject.WasmAOTTranslate]
					if fired != reg.AOTTranslated() {
						t.Errorf("denial fired %d times for %d register translations", fired, reg.AOTTranslated())
					}
					if mode.mode == TierOptOnly && fired == 0 {
						t.Error("opt-only mode should translate (and here deny) from the first call")
					}
					if mode.mode == TierBasicOnly && fired != 0 {
						t.Errorf("basic-only mode attempted %d optimizing translations", fired)
					}
				})
			}
		}
	}
}

// TestRegBranchIntoPair pins the in-place partner slot: every pair form
// translateReg overlays leaves its partner slot equal to the 1:1 form, so
// a branch landing on the partner would execute that slot alone. The
// landing module's br_if lands on the head of a get+get pair, and the
// opt-only run must compute and measure what the stack loop does with the
// translation denied.
func TestRegBranchIntoPair(t *testing.T) {
	for _, m := range []*wasm.Module{buildModule(), landingModule()} {
		vm, err := New(m, 0, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := range vm.funcs {
			cf := &vm.funcs[i]
			paired := translateReg(m, cf, &vm.cfg.OptCost)
			plain := translateSlots(m, cf, &vm.cfg.OptCost)
			for pc := 0; pc+1 < len(paired); pc++ {
				if paired[pc].kind < rMove2 {
					continue
				}
				if !reflect.DeepEqual(paired[pc+1], plain[pc+1]) {
					t.Errorf("%s: partner slot %d of pair at %d differs from its 1:1 form:\n  %+v\n  %+v",
						cf.name, pc+1, pc, paired[pc+1], plain[pc+1])
				}
				pc++
			}
		}
	}
	for _, x := range []int32{0, 3} {
		cfg := DefaultConfig()
		cfg.Mode = TierOptOnly
		reg, denied, rres, dres, rerr, derr, _ := runRegPair(t, landingModule(), cfg, false,
			func(vm *VM) ([]uint64, error) { return vm.Call("landing", I32(x)) })
		assertEquivalent(t, reg, denied, rres, dres, rerr, derr)
		if reg.AOTTranslated() == 0 {
			t.Fatal("landing module should run on its register form")
		}
		want := x + 5
		if x == 0 {
			want = 100
		}
		if AsI32(rres[0]) != want {
			t.Errorf("landing(%d) = %d, want %d", x, AsI32(rres[0]), want)
		}
	}
}
