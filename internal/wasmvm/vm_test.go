package wasmvm

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"wasmbench/internal/wasm"
)

// buildModule assembles a module with a set of test functions.
func buildModule() *wasm.Module {
	m := &wasm.Module{}
	tII_I := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	tI_I := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	tI_L := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I64}})
	tFF_F := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.F64, wasm.F64}, Results: []wasm.ValType{wasm.F64}})
	m.Mem = &wasm.MemType{Min: 1, Max: 256, HasMax: true}

	// add(a, b) = a + b
	m.Funcs = append(m.Funcs, wasm.Function{Type: tII_I, Name: "add", Body: []wasm.Instr{
		{Op: wasm.OpLocalGet, A: 0}, {Op: wasm.OpLocalGet, A: 1},
		{Op: wasm.OpI32Add}, {Op: wasm.OpEnd},
	}})
	// div(a, b) = a / b  (traps on b == 0)
	m.Funcs = append(m.Funcs, wasm.Function{Type: tII_I, Name: "div", Body: []wasm.Instr{
		{Op: wasm.OpLocalGet, A: 0}, {Op: wasm.OpLocalGet, A: 1},
		{Op: wasm.OpI32DivS}, {Op: wasm.OpEnd},
	}})
	// sum(n): loop accumulating 0..n-1 into an i64
	m.Funcs = append(m.Funcs, wasm.Function{Type: tI_L, Name: "sum",
		Locals: []wasm.ValType{wasm.I32, wasm.I64},
		Body: []wasm.Instr{
			{Op: wasm.OpBlock, BlockType: wasm.BlockNone},
			{Op: wasm.OpLoop, BlockType: wasm.BlockNone},
			{Op: wasm.OpLocalGet, A: 1}, {Op: wasm.OpLocalGet, A: 0}, {Op: wasm.OpI32GeS},
			{Op: wasm.OpBrIf, A: 1},
			{Op: wasm.OpLocalGet, A: 2}, {Op: wasm.OpLocalGet, A: 1},
			{Op: wasm.OpI64ExtendI32S}, {Op: wasm.OpI64Add}, {Op: wasm.OpLocalSet, A: 2},
			{Op: wasm.OpLocalGet, A: 1}, {Op: wasm.OpI32Const, Val: 1},
			{Op: wasm.OpI32Add}, {Op: wasm.OpLocalSet, A: 1},
			{Op: wasm.OpBr, A: 0},
			{Op: wasm.OpEnd},
			{Op: wasm.OpEnd},
			{Op: wasm.OpLocalGet, A: 2},
			{Op: wasm.OpEnd},
		}})
	// fib(n): recursion exercises the call machinery
	fibIdx := uint32(3)
	m.Funcs = append(m.Funcs, wasm.Function{Type: tI_I, Name: "fib", Body: []wasm.Instr{
		{Op: wasm.OpLocalGet, A: 0}, {Op: wasm.OpI32Const, Val: 3}, {Op: wasm.OpI32LtS},
		{Op: wasm.OpIf, BlockType: wasm.BlockNone},
		{Op: wasm.OpI32Const, Val: 1}, {Op: wasm.OpReturn},
		{Op: wasm.OpEnd},
		{Op: wasm.OpLocalGet, A: 0}, {Op: wasm.OpI32Const, Val: 1}, {Op: wasm.OpI32Sub},
		{Op: wasm.OpCall, A: fibIdx},
		{Op: wasm.OpLocalGet, A: 0}, {Op: wasm.OpI32Const, Val: 2}, {Op: wasm.OpI32Sub},
		{Op: wasm.OpCall, A: fibIdx},
		{Op: wasm.OpI32Add},
		{Op: wasm.OpEnd},
	}})
	// hypot(a, b) = sqrt(a*a + b*b)
	m.Funcs = append(m.Funcs, wasm.Function{Type: tFF_F, Name: "hypot", Body: []wasm.Instr{
		{Op: wasm.OpLocalGet, A: 0}, {Op: wasm.OpLocalGet, A: 0}, {Op: wasm.OpF64Mul},
		{Op: wasm.OpLocalGet, A: 1}, {Op: wasm.OpLocalGet, A: 1}, {Op: wasm.OpF64Mul},
		{Op: wasm.OpF64Add}, {Op: wasm.OpF64Sqrt}, {Op: wasm.OpEnd},
	}})
	// memtest(addr) = store 0xDEADBEEF at addr, load it back
	m.Funcs = append(m.Funcs, wasm.Function{Type: tI_I, Name: "memtest", Body: []wasm.Instr{
		{Op: wasm.OpLocalGet, A: 0}, {Op: wasm.OpI32Const, Val: int64(int32(-559038737))},
		{Op: wasm.OpI32Store, A: 2},
		{Op: wasm.OpLocalGet, A: 0}, {Op: wasm.OpI32Load, A: 2}, {Op: wasm.OpEnd},
	}})
	// grow(n) = memory.grow(n)
	m.Funcs = append(m.Funcs, wasm.Function{Type: tI_I, Name: "grow", Body: []wasm.Instr{
		{Op: wasm.OpLocalGet, A: 0}, {Op: wasm.OpMemoryGrow}, {Op: wasm.OpEnd},
	}})
	// switcher(n): br_table over 3 cases
	m.Funcs = append(m.Funcs, wasm.Function{Type: tI_I, Name: "switcher",
		Locals: []wasm.ValType{wasm.I32},
		Body: []wasm.Instr{
			{Op: wasm.OpBlock, BlockType: wasm.BlockNone},
			{Op: wasm.OpBlock, BlockType: wasm.BlockNone},
			{Op: wasm.OpBlock, BlockType: wasm.BlockNone},
			{Op: wasm.OpLocalGet, A: 0},
			{Op: wasm.OpBrTable, Targets: []uint32{0, 1}, A: 2},
			{Op: wasm.OpEnd},
			{Op: wasm.OpI32Const, Val: 100}, {Op: wasm.OpLocalSet, A: 1}, {Op: wasm.OpBr, A: 1},
			{Op: wasm.OpEnd},
			{Op: wasm.OpI32Const, Val: 200}, {Op: wasm.OpLocalSet, A: 1}, {Op: wasm.OpBr, A: 0},
			{Op: wasm.OpEnd},
			// result = (local1 == 0) ? 300 : local1
			{Op: wasm.OpI32Const, Val: 300},
			{Op: wasm.OpLocalGet, A: 1},
			{Op: wasm.OpLocalGet, A: 1}, {Op: wasm.OpI32Eqz},
			{Op: wasm.OpSelect},
			{Op: wasm.OpEnd},
		}})
	for i, name := range []string{"add", "div", "sum", "fib", "hypot", "memtest", "grow", "switcher"} {
		m.Exports = append(m.Exports, wasm.Export{Name: name, Kind: wasm.ExportFunc, Idx: uint32(i)})
	}
	return m
}

func newVM(t *testing.T, cfg Config) *VM {
	t.Helper()
	vm, err := New(buildModule(), 0, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := vm.Instantiate(); err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	return vm
}

func call1(t *testing.T, vm *VM, name string, args ...uint64) uint64 {
	t.Helper()
	res, err := vm.Call(name, args...)
	if err != nil {
		t.Fatalf("Call(%s): %v", name, err)
	}
	if len(res) != 1 {
		t.Fatalf("Call(%s): expected 1 result, got %d", name, len(res))
	}
	return res[0]
}

func TestBasicArithmetic(t *testing.T) {
	vm := newVM(t, DefaultConfig())
	if got := call1(t, vm, "add", I32(2), I32(40)); AsI32(got) != 42 {
		t.Errorf("add(2,40) = %d", AsI32(got))
	}
	if got := call1(t, vm, "add", I32(math.MaxInt32), I32(1)); AsI32(got) != math.MinInt32 {
		t.Errorf("i32 wraparound: got %d", AsI32(got))
	}
	if got := call1(t, vm, "div", I32(-7), I32(2)); AsI32(got) != -3 {
		t.Errorf("div(-7,2) = %d, want -3 (truncated)", AsI32(got))
	}
}

func TestLoopSum(t *testing.T) {
	vm := newVM(t, DefaultConfig())
	if got := call1(t, vm, "sum", I32(1000)); AsI64(got) != 499500 {
		t.Errorf("sum(1000) = %d, want 499500", AsI64(got))
	}
	if got := call1(t, vm, "sum", I32(0)); AsI64(got) != 0 {
		t.Errorf("sum(0) = %d", AsI64(got))
	}
}

func TestRecursionFib(t *testing.T) {
	vm := newVM(t, DefaultConfig())
	if got := call1(t, vm, "fib", I32(10)); AsI32(got) != 55 {
		t.Errorf("fib(10) = %d, want 55", AsI32(got))
	}
}

func TestFloatHypot(t *testing.T) {
	vm := newVM(t, DefaultConfig())
	if got := AsF64(call1(t, vm, "hypot", F64(3), F64(4))); got != 5 {
		t.Errorf("hypot(3,4) = %v", got)
	}
}

func TestMemoryStoreLoad(t *testing.T) {
	vm := newVM(t, DefaultConfig())
	if got := call1(t, vm, "memtest", I32(1024)); uint32(got) != 0xDEADBEEF {
		t.Errorf("memtest = %#x", uint32(got))
	}
}

func TestMemoryOOBTrap(t *testing.T) {
	vm := newVM(t, DefaultConfig())
	_, err := vm.Call("memtest", I32(int32(PageSize))) // one past the single page
	var oob *TrapOOB
	if !errors.As(err, &oob) || oob.Addr != PageSize || oob.Size != 4 {
		t.Fatalf("expected OOB trap at %d (4 bytes), got %v", PageSize, err)
	}
}

func TestDivByZeroTrap(t *testing.T) {
	vm := newVM(t, DefaultConfig())
	if _, err := vm.Call("div", I32(1), I32(0)); !errors.Is(err, ErrDivByZero) {
		t.Fatalf("expected div-by-zero trap, got %v", err)
	}
	if _, err := vm.Call("div", I32(math.MinInt32), I32(-1)); !errors.Is(err, ErrIntOverflow) {
		t.Fatalf("expected overflow trap, got %v", err)
	}
}

func TestMemoryGrowSemantics(t *testing.T) {
	vm := newVM(t, DefaultConfig())
	if got := call1(t, vm, "grow", I32(3)); AsI32(got) != 1 {
		t.Errorf("grow(3) returned %d, want old size 1", AsI32(got))
	}
	if p := vm.Memory().Pages(); p != 4 {
		t.Errorf("pages after grow = %d, want 4", p)
	}
	// Growing past the max (256) must fail with -1.
	if got := call1(t, vm, "grow", I32(10000)); AsI32(got) != -1 {
		t.Errorf("oversized grow returned %d, want -1", AsI32(got))
	}
	if vm.PeakMemoryBytes() != 4*PageSize {
		t.Errorf("peak = %d", vm.PeakMemoryBytes())
	}
}

func TestGrowGranularityRounding(t *testing.T) {
	// Emscripten-style 16 MiB chunks: a 1-page request commits 256 pages.
	mem := NewMemory(1, 10000, 256)
	if old := mem.Grow(1); old != 1 {
		t.Fatalf("grow returned %d", old)
	}
	if p := mem.Pages(); p != 257 {
		t.Errorf("pages = %d, want 257 (granularity-rounded)", p)
	}
	// When rounding would exceed the max, the exact request still succeeds.
	tight := NewMemory(1, 4, 256)
	if old := tight.Grow(2); old != 1 {
		t.Fatalf("tight grow returned %d", old)
	}
	if p := tight.Pages(); p != 3 {
		t.Errorf("tight pages = %d, want 3", p)
	}
	// And a request beyond the max fails outright.
	if r := tight.Grow(100); r != -1 {
		t.Errorf("over-max grow = %d, want -1", r)
	}
}

func TestBrTableSwitch(t *testing.T) {
	vm := newVM(t, DefaultConfig())
	for n, want := range map[int32]int32{0: 100, 1: 200, 2: 300, 7: 300} {
		if got := AsI32(call1(t, vm, "switcher", I32(n))); got != want {
			t.Errorf("switcher(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCyclesMonotonic(t *testing.T) {
	vm := newVM(t, DefaultConfig())
	c0 := vm.Cycles()
	call1(t, vm, "sum", I32(10))
	c1 := vm.Cycles()
	call1(t, vm, "sum", I32(10000))
	c2 := vm.Cycles()
	if !(c0 < c1 && c1 < c2) {
		t.Fatalf("cycles not increasing: %v %v %v", c0, c1, c2)
	}
	if (c2-c1)/(c1-c0) < 10 {
		t.Errorf("1000x more work should cost much more: %v vs %v", c2-c1, c1-c0)
	}
}

func TestTierUpHappensAndHelps(t *testing.T) {
	mkCfg := func(mode TierMode) Config {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.TierUpThreshold = 100
		return cfg
	}
	both := newVM(t, mkCfg(TierBoth))
	call1(t, both, "sum", I32(200000))
	if both.Stats().TierUps == 0 {
		t.Fatal("expected tier-up in TierBoth mode")
	}
	basic := newVM(t, mkCfg(TierBasicOnly))
	call1(t, basic, "sum", I32(200000))
	if basic.Stats().TierUps != 0 {
		t.Fatal("TierBasicOnly must not tier up")
	}
	if both.Cycles() >= basic.Cycles() {
		t.Errorf("tiered-up run should be cheaper: both=%v basic=%v", both.Cycles(), basic.Cycles())
	}
	opt := newVM(t, mkCfg(TierOptOnly))
	call1(t, opt, "sum", I32(200000))
	if opt.Cycles() >= basic.Cycles() {
		t.Errorf("opt-only should beat basic-only on a hot loop: opt=%v basic=%v", opt.Cycles(), basic.Cycles())
	}
}

func TestTinyProgramGainsNothingFromJIT(t *testing.T) {
	// The paper's CHStone observation: small inputs never reach the JIT
	// threshold, so tiering does not help.
	mk := func(mode TierMode) float64 {
		cfg := DefaultConfig()
		cfg.Mode = mode
		vm := newVM(t, cfg)
		call1(t, vm, "sum", I32(50))
		return vm.Cycles()
	}
	both, basic := mk(TierBoth), mk(TierBasicOnly)
	if both != basic {
		t.Errorf("tiny program: TierBoth (%v) should equal TierBasicOnly (%v)", both, basic)
	}
}

func TestStepLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StepLimit = 1000
	vm := newVM(t, cfg)
	if _, err := vm.Call("sum", I32(100000)); !errors.Is(err, ErrStepLimit) {
		t.Fatalf("expected step limit error, got %v", err)
	}
}

func TestCallDepthLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CallDepthLimit = 10
	vm := newVM(t, cfg)
	if _, err := vm.Call("fib", I32(30)); !errors.Is(err, ErrCallDepth) {
		t.Fatalf("expected call depth error, got %v", err)
	}
}

func TestOpCountsInstrumented(t *testing.T) {
	vm := newVM(t, DefaultConfig())
	call1(t, vm, "sum", I32(100))
	s := vm.Stats()
	ops := s.ArithOps()
	// Each iteration does one i64.add and one i32.add: 200 total adds (+

	// loop-exit compare adds none).
	if ops["ADD"] != 200 {
		t.Errorf("ADD count = %d, want 200", ops["ADD"])
	}
	if ops["MUL"] != 0 || ops["DIV"] != 0 {
		t.Errorf("unexpected MUL/DIV counts: %v", ops)
	}
	if s.Steps == 0 {
		t.Error("steps not counted")
	}
}

func TestHostImport(t *testing.T) {
	m := buildModule()
	th := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	m.Imports = append(m.Imports, wasm.Import{Module: "env", Field: "twice", Type: th})
	// Imports precede defined funcs in index space; rebuild call targets.
	// buildModule uses absolute indices for fib's self-call, so append the
	// import only for this dedicated module: easier to build a fresh one.
	m2 := &wasm.Module{}
	ti := m2.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	m2.Imports = append(m2.Imports, wasm.Import{Module: "env", Field: "twice", Type: ti})
	m2.Funcs = append(m2.Funcs, wasm.Function{Type: ti, Name: "callhost", Body: []wasm.Instr{
		{Op: wasm.OpLocalGet, A: 0},
		{Op: wasm.OpCall, A: 0},
		{Op: wasm.OpEnd},
	}})
	m2.Exports = append(m2.Exports, wasm.Export{Name: "callhost", Kind: wasm.ExportFunc, Idx: 1})
	vm, err := New(m2, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.BindImport("env", "twice", m2.Types[m2.Imports[0].Type], func(_ *VM, args []uint64) ([]uint64, error) {
		return []uint64{I32(2 * AsI32(args[0]))}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := vm.Instantiate(); err != nil {
		t.Fatal(err)
	}
	if got := call1(t, vm, "callhost", I32(21)); AsI32(got) != 42 {
		t.Errorf("callhost(21) = %d", AsI32(got))
	}
	// Unbound imports must error cleanly.
	vm2, _ := New(m2, 0, DefaultConfig())
	_ = vm2.Instantiate()
	if _, err := vm2.Call("callhost", I32(1)); !errors.Is(err, ErrUnboundImport) {
		t.Errorf("expected unbound import error, got %v", err)
	}
}

func TestAddMatchesGoSemantics(t *testing.T) {
	vm := newVM(t, DefaultConfig())
	f := func(a, b int32) bool {
		got := AsI32(call1(t, vm, "add", I32(a), I32(b)))
		return got == a+b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIfElseValueBlocks(t *testing.T) {
	m := &wasm.Module{}
	ti := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.F64}})
	m.Funcs = append(m.Funcs, wasm.Function{Type: ti, Name: "pick", Body: []wasm.Instr{
		{Op: wasm.OpLocalGet, A: 0},
		{Op: wasm.OpIf, BlockType: int32(wasm.F64)},
		{Op: wasm.OpF64Const, Val: wasm.F64Bits(1.5)},
		{Op: wasm.OpElse},
		{Op: wasm.OpF64Const, Val: wasm.F64Bits(2.5)},
		{Op: wasm.OpEnd},
		{Op: wasm.OpEnd},
	}})
	m.Exports = append(m.Exports, wasm.Export{Name: "pick", Kind: wasm.ExportFunc, Idx: 0})
	vm, err := New(m, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Instantiate(); err != nil {
		t.Fatal(err)
	}
	if got := AsF64(call1(t, vm, "pick", I32(1))); got != 1.5 {
		t.Errorf("pick(1) = %v", got)
	}
	if got := AsF64(call1(t, vm, "pick", I32(0))); got != 2.5 {
		t.Errorf("pick(0) = %v", got)
	}
}

func TestEncodedModuleRunsAfterDecode(t *testing.T) {
	bin, err := wasm.Encode(buildModule())
	if err != nil {
		t.Fatal(err)
	}
	m, err := wasm.Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := New(m, len(bin), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Instantiate(); err != nil {
		t.Fatal(err)
	}
	if got := call1(t, vm, "fib", I32(12)); AsI32(got) != 144 {
		t.Errorf("fib(12) via binary = %d", AsI32(got))
	}
}
