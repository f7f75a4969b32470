package wasmvm

import (
	"errors"
	"testing"

	"wasmbench/internal/wasm"
)

// seedUnpaired installs each function's 1:1 register form (translateSlots,
// no pair overlays) as its register body before the first call: aotBody
// then builds superblocks from it instead of translating the paired form.
func seedUnpaired(vm *VM) {
	for i := range vm.funcs {
		cf := &vm.funcs[i]
		cf.regCode = translateSlots(vm.module, cf, &vm.cfg.OptCost)
	}
}

// runBoth instantiates the module twice — optimizing tier on the paired
// register form (fused) and on the 1:1 form (plain) — applies call, and
// returns both VMs for comparison. The tier mode comes in via cfg.
func runBoth(t *testing.T, m *wasm.Module, cfg Config, call func(vm *VM) ([]uint64, error)) (fused, plain *VM, fres, pres []uint64, ferr, perr error) {
	t.Helper()
	mk := func(unpaired bool) (*VM, []uint64, error) {
		vm, err := New(m, 0, cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := vm.Instantiate(); err != nil {
			t.Fatalf("Instantiate: %v", err)
		}
		if unpaired {
			seedUnpaired(vm)
		}
		res, err := call(vm)
		return vm, res, err
	}
	fused, fres, ferr = mk(false)
	plain, pres, perr = mk(true)
	return
}

// assertEquivalent checks the full determinism contract between two runs
// of the same workload: same results, same virtual cycles, same step
// counts and per-class instruction mix.
func assertEquivalent(t *testing.T, a, b *VM, ares, bres []uint64, aerr, berr error) {
	t.Helper()
	if (aerr == nil) != (berr == nil) || (aerr != nil && aerr.Error() != berr.Error()) {
		t.Fatalf("errors differ: %v vs %v", aerr, berr)
	}
	if len(ares) != len(bres) {
		t.Fatalf("result arity differs: %v vs %v", ares, bres)
	}
	for i := range ares {
		if ares[i] != bres[i] {
			t.Fatalf("result %d differs: %#x vs %#x", i, ares[i], bres[i])
		}
	}
	if a.Cycles() != b.Cycles() {
		t.Errorf("cycles differ: %v vs %v", a.Cycles(), b.Cycles())
	}
	as, bs := a.Stats(), b.Stats()
	// AOTCycles is the one dispatcher-visible field: it sub-splits OptCycles
	// by whether AOT superblocks or the stack loop served the optimizing
	// tier, so a pair that differs only in that legitimately disagrees.
	as.AOTCycles, bs.AOTCycles = 0, 0
	if as != bs {
		t.Errorf("stats differ:\n  %+v\n  %+v", as, bs)
	}
}

// pairCount counts the pair forms in a register body.
func pairCount(code []rop) int {
	n := 0
	for i := range code {
		if code[i].kind >= rMove2 {
			n++
		}
	}
	return n
}

// TestFusionFormsPairs: translateReg overlays pair forms on the test
// module, the 1:1 form has none, and under a step limit nothing is
// translated at all (the stack loop keeps the exact trip instruction).
func TestFusionFormsPairs(t *testing.T) {
	m := buildModule()
	vm, err := New(m, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for i := range vm.funcs {
		cf := &vm.funcs[i]
		pairs += pairCount(translateReg(m, cf, &vm.cfg.OptCost))
		if n := pairCount(translateSlots(m, cf, &vm.cfg.OptCost)); n != 0 {
			t.Errorf("%s: 1:1 form has %d pair forms", cf.name, n)
		}
	}
	if pairs == 0 {
		t.Fatal("expected pair forms in the test module")
	}
	cfg := DefaultConfig()
	cfg.Mode = TierOptOnly
	cfg.StepLimit = 1 << 40
	vm2 := newVM(t, cfg)
	call1(t, vm2, "sum", I32(1000))
	if vm2.AOTTranslated() != 0 {
		t.Errorf("StepLimit should keep the optimizing tier on the stack loop, got %d AOT bodies", vm2.AOTTranslated())
	}
}

// TestFusionEquivalence sweeps every exported function of the shared test
// module in opt-only mode, so the register form runs from the first call:
// get+get pairs (add/hypot), const+binop and cmp+br_if (sum's loop),
// get+load (memtest), calls (fib), br_table (switcher).
func TestFusionEquivalence(t *testing.T) {
	calls := []struct {
		name string
		args []uint64
	}{
		{"add", []uint64{I32(2), I32(40)}},
		{"sum", []uint64{I32(10000)}},
		{"fib", []uint64{I32(15)}},
		{"hypot", []uint64{F64(3), F64(4)}},
		{"memtest", []uint64{I32(1024)}},
		{"grow", []uint64{I32(2)}},
		{"switcher", []uint64{I32(1)}},
	}
	for _, c := range calls {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mode = TierOptOnly
			fused, plain, fres, pres, ferr, perr := runBoth(t, buildModule(), cfg,
				func(vm *VM) ([]uint64, error) { return vm.Call(c.name, c.args...) })
			assertEquivalent(t, fused, plain, fres, pres, ferr, perr)
			if fused.AOTTranslated() == 0 || plain.AOTTranslated() == 0 {
				t.Error("opt-only calls should run AOT superblocks")
			}
		})
	}
}

// TestFusionEquivalenceTiered drives sum far past the tier-up threshold so
// the loop moves into the register form by OSR mid-call, landing at the
// same branch target in the paired and the 1:1 body.
func TestFusionEquivalenceTiered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TierUpThreshold = 100
	fused, plain, fres, pres, ferr, perr := runBoth(t, buildModule(), cfg,
		func(vm *VM) ([]uint64, error) { return vm.Call("sum", I32(200000)) })
	assertEquivalent(t, fused, plain, fres, pres, ferr, perr)
	if fused.Stats().TierUps == 0 || fused.AOTTranslated() == 0 {
		t.Fatal("test should exercise a tier-up into AOT superblocks")
	}
}

// TestFusionEquivalenceProfiles compares the per-function class attribution
// under profiling, where each pair attributes both of its components.
func TestFusionEquivalenceProfiles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Profile = true
	fused, plain, fres, pres, ferr, perr := runBoth(t, buildModule(), cfg,
		func(vm *VM) ([]uint64, error) { return vm.Call("sum", I32(5000)) })
	assertEquivalent(t, fused, plain, fres, pres, ferr, perr)
	fp, pp := fused.Profile(), plain.Profile()
	if len(fp) != len(pp) {
		t.Fatalf("profile lengths differ: %d vs %d", len(fp), len(pp))
	}
	for i := range fp {
		if fp[i].Name != pp[i].Name || fp[i].SelfCycles != pp[i].SelfCycles ||
			fp[i].TotalCycles != pp[i].TotalCycles || fp[i].Calls != pp[i].Calls {
			t.Errorf("profile %d differs:\n  fused: %+v\n  plain: %+v", i, fp[i], pp[i])
		}
		if len(fp[i].Classes) != len(pp[i].Classes) {
			t.Fatalf("profile %d class mix length differs", i)
		}
		for j := range fp[i].Classes {
			if fp[i].Classes[j] != pp[i].Classes[j] {
				t.Errorf("profile %d class %d differs: %+v vs %+v",
					i, j, fp[i].Classes[j], pp[i].Classes[j])
			}
		}
	}
}

// trapModule builds functions whose pairs trap on their second component:
// const+div-by-zero and get+load out of bounds. The partially-executed
// charge must match the unpaired execution exactly.
func trapModule() *wasm.Module {
	m := &wasm.Module{}
	ti := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	m.Mem = &wasm.MemType{Min: 1, Max: 4, HasMax: true}
	// divz(x) = x / 0 via a fusable i32.const 0; i32.div_s pair
	m.Funcs = append(m.Funcs, wasm.Function{Type: ti, Name: "divz", Body: []wasm.Instr{
		{Op: wasm.OpLocalGet, A: 0},
		{Op: wasm.OpI32Const, Val: 0},
		{Op: wasm.OpI32DivS},
		{Op: wasm.OpEnd},
	}})
	// oob(addr) = load far past memory via a local.get+i32.load pair
	m.Funcs = append(m.Funcs, wasm.Function{Type: ti, Name: "oob", Body: []wasm.Instr{
		{Op: wasm.OpLocalGet, A: 0},
		{Op: wasm.OpI32Load, A: 2, B: 0},
		{Op: wasm.OpEnd},
	}})
	for i, name := range []string{"divz", "oob"} {
		m.Exports = append(m.Exports, wasm.Export{Name: name, Kind: wasm.ExportFunc, Idx: uint32(i)})
	}
	return m
}

func TestFusionTrapEquivalence(t *testing.T) {
	for _, c := range []struct {
		name string
		arg  uint64
		want error
	}{
		{"divz", I32(7), ErrDivByZero},
		{"oob", I32(1 << 30), nil}, // OOB trap type checked below
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mode = TierOptOnly
			fused, plain, fres, pres, ferr, perr := runBoth(t, trapModule(), cfg,
				func(vm *VM) ([]uint64, error) { return vm.Call(c.name, c.arg) })
			if ferr == nil || perr == nil {
				t.Fatalf("expected traps, got fused=%v plain=%v", ferr, perr)
			}
			if c.want != nil && !errors.Is(ferr, c.want) {
				t.Fatalf("fused trap = %v, want %v", ferr, c.want)
			}
			assertEquivalent(t, fused, plain, fres, pres, ferr, perr)
		})
	}
}

// TestFusionBranchIntoPair branches directly to the second instruction of a
// pair (opt-only, so the register form runs); that slot keeps its
// standalone form, so the landing executes it exactly as unpaired code
// would.
func TestFusionBranchIntoPair(t *testing.T) {
	m := &wasm.Module{}
	ti := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	// f(x): if x != 0 { push 7 } else { push x }; then local.get 0; i32.add
	// The (local.get 0; i32.add)… build a body where a br lands between a
	// fusable local.get/local.get pair.
	m.Funcs = append(m.Funcs, wasm.Function{Type: ti, Name: "landing",
		Locals: []wasm.ValType{wasm.I32},
		Body: []wasm.Instr{
			{Op: wasm.OpI32Const, Val: 5}, {Op: wasm.OpLocalSet, A: 1},
			{Op: wasm.OpBlock, BlockType: wasm.BlockNone},
			{Op: wasm.OpLocalGet, A: 0},
			{Op: wasm.OpBrIf, A: 0}, // skip into the middle when x != 0
			{Op: wasm.OpI32Const, Val: 100}, {Op: wasm.OpLocalSet, A: 1},
			{Op: wasm.OpEnd},
			// Fusable pair; the br_if above jumps to the End right before
			// this, so both entry paths flow through it.
			{Op: wasm.OpLocalGet, A: 0},
			{Op: wasm.OpLocalGet, A: 1},
			{Op: wasm.OpI32Add},
			{Op: wasm.OpEnd},
		}})
	m.Exports = append(m.Exports, wasm.Export{Name: "landing", Kind: wasm.ExportFunc, Idx: 0})
	cfg := DefaultConfig()
	cfg.Mode = TierOptOnly
	for _, x := range []int32{0, 3} {
		fused, plain, fres, pres, ferr, perr := runBoth(t, m, cfg,
			func(vm *VM) ([]uint64, error) { return vm.Call("landing", I32(x)) })
		assertEquivalent(t, fused, plain, fres, pres, ferr, perr)
		want := x + 5
		if x == 0 {
			want = 100
		}
		if AsI32(fres[0]) != want {
			t.Errorf("landing(%d) = %d, want %d", x, AsI32(fres[0]), want)
		}
	}
}

// TestFusionStepLimitUnchanged: with a step limit the optimizing tier
// stays on the stack loop, where pairs do not exist, so the budget trips
// at the identical instruction as before.
func TestFusionStepLimitUnchanged(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StepLimit = 1000
	vm, err := New(buildModule(), 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Instantiate(); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Call("sum", I32(100000)); !errors.Is(err, ErrStepLimit) {
		t.Fatalf("expected step limit error, got %v", err)
	}
	if vm.Stats().Steps != 1001 {
		t.Errorf("steps at trip = %d, want 1001", vm.Stats().Steps)
	}
}
