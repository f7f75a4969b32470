// Package codegen lowers the optimizer IR to the study's three targets:
// WebAssembly modules (Cheerp/Emscripten-style), Cheerp-style JavaScript
// source, and x86-like register bytecode (the native baseline of the
// paper's Fig. 6).
package codegen

import (
	"fmt"
	"math"

	"wasmbench/internal/ir"
	"wasmbench/internal/wasm"
)

// WasmOptions tunes Wasm emission per toolchain flavour.
type WasmOptions struct {
	// CompactF64Consts emits integral f64 constants as
	// i32.const + f64.convert_i32_s (smaller binary, one extra dynamic
	// instruction) — the Cheerp -O2 behavior in the paper's Fig. 8.
	CompactF64Consts bool
	// InitialHeapPages adds heap headroom to the initial memory beyond
	// static data + stack (Emscripten commits large chunks up front).
	InitialHeapPages uint32
	// ModuleName is recorded in the name section.
	ModuleName string
}

// hostImports lists the environment functions a module may import, in a
// fixed order so import indices are stable.
var hostImports = []struct {
	name string
	typ  wasm.FuncType
}{
	{"print_i", wasm.FuncType{Params: []wasm.ValType{wasm.I64}}},
	{"print_f", wasm.FuncType{Params: []wasm.ValType{wasm.F64}}},
	{"print_s", wasm.FuncType{Params: []wasm.ValType{wasm.I32}}},
	{"sin", wasm.FuncType{Params: []wasm.ValType{wasm.F64}, Results: []wasm.ValType{wasm.F64}}},
	{"cos", wasm.FuncType{Params: []wasm.ValType{wasm.F64}, Results: []wasm.ValType{wasm.F64}}},
	{"exp", wasm.FuncType{Params: []wasm.ValType{wasm.F64}, Results: []wasm.ValType{wasm.F64}}},
	{"log", wasm.FuncType{Params: []wasm.ValType{wasm.F64}, Results: []wasm.ValType{wasm.F64}}},
	{"pow", wasm.FuncType{Params: []wasm.ValType{wasm.F64, wasm.F64}, Results: []wasm.ValType{wasm.F64}}},
	{"fmod", wasm.FuncType{Params: []wasm.ValType{wasm.F64, wasm.F64}, Results: []wasm.ValType{wasm.F64}}},
}

// HostImportType returns the signature of the environment function name
// that compiled modules import from "env" (the zero FuncType for any
// other name).
func HostImportType(name string) wasm.FuncType {
	for _, hi := range hostImports {
		if hi.name == name {
			return hi.typ
		}
	}
	return wasm.FuncType{}
}

func wasmType(t ir.Type) wasm.ValType {
	switch t {
	case ir.I64:
		return wasm.I64
	case ir.F32:
		return wasm.F32
	case ir.F64:
		return wasm.F64
	default:
		return wasm.I32
	}
}

// Wasm compiles an IR program to a WebAssembly module.
func Wasm(p *ir.Program, opts WasmOptions) (*wasm.Module, error) {
	g := &wasmGen{p: p, opts: opts, m: &wasm.Module{Name: opts.ModuleName}}

	// Imports: only those actually referenced.
	used := map[string]bool{}
	for _, f := range p.Funcs {
		collectHostCalls(f.Body, used)
	}
	g.importIdx = map[string]uint32{}
	for _, hi := range hostImports {
		if !used[hi.name] {
			continue
		}
		ti := g.m.AddType(hi.typ)
		g.importIdx[hi.name] = uint32(len(g.m.Imports))
		g.m.Imports = append(g.m.Imports, wasm.Import{Module: "env", Field: hi.name, Type: ti})
	}
	g.nImports = uint32(len(g.m.Imports))

	// Memory: static + stack (+ optional heap headroom), max covers heap
	// limit.
	minPages := (p.StackTop + wasmPageSize - 1) / wasmPageSize
	minPages += opts.InitialHeapPages
	maxPages := (p.StackTop + p.HeapLimit + wasmPageSize - 1) / wasmPageSize
	if maxPages < minPages {
		maxPages = minPages
	}
	g.m.Mem = &wasm.MemType{Min: minPages, Max: maxPages, HasMax: true}

	for _, gl := range p.Globals {
		g.m.Globals = append(g.m.Globals, wasm.Global{
			Type: wasmType(gl.Type), Mutable: gl.Mutable, Init: gl.Init, Name: gl.Name,
		})
	}
	for _, d := range p.Data {
		g.m.Data = append(g.m.Data, wasm.DataSegment{Offset: d.Addr, Bytes: d.Bytes})
	}

	for _, f := range p.Funcs {
		wf, err := g.genFunc(f)
		if err != nil {
			return nil, fmt.Errorf("codegen: func %s: %w", f.Name, err)
		}
		g.m.Funcs = append(g.m.Funcs, wf)
	}
	for i, f := range p.Funcs {
		if f.Exported || i == p.MainFunc {
			g.m.Exports = append(g.m.Exports, wasm.Export{
				Name: f.Name, Kind: wasm.ExportFunc, Idx: g.nImports + uint32(i),
			})
		}
	}
	g.m.Exports = append(g.m.Exports, wasm.Export{Name: "memory", Kind: wasm.ExportMemory})
	if err := wasm.Validate(g.m); err != nil {
		return nil, fmt.Errorf("codegen: generated module invalid: %w", err)
	}
	return g.m, nil
}

const wasmPageSize = 64 * 1024

func collectHostCalls(body []ir.Stmt, used map[string]bool) {
	ir.WalkAllExprs(body, func(e ir.Expr) {
		if ch, ok := e.(*ir.CallHost); ok {
			used[ch.Name] = true
		}
	})
}

type wasmGen struct {
	p         *ir.Program
	opts      WasmOptions
	m         *wasm.Module
	importIdx map[string]uint32
	nImports  uint32

	// per-function state
	f        *ir.Func
	code     []wasm.Instr
	depth    int   // current control nesting depth
	brks     []int // depth of the block a Break targets
	conts    []int // depth of the block a Continue targets
	exitDep  int   // depth of the function's exit block
	fpLocal  int   // local caching the frame pointer (-1 if no frame)
	extraLoc []wasm.ValType
}

func (g *wasmGen) emit(in wasm.Instr) { g.code = append(g.code, in) }

func (g *wasmGen) genFunc(f *ir.Func) (wasm.Function, error) {
	g.f = f
	g.code = nil
	g.depth = 0
	g.brks, g.conts = nil, nil
	g.extraLoc = nil
	g.fpLocal = -1

	ft := wasm.FuncType{}
	for _, pt := range f.Params {
		ft.Params = append(ft.Params, wasmType(pt))
	}
	if f.Ret != ir.Void {
		ft.Results = []wasm.ValType{wasmType(f.Ret)}
	}
	ti := g.m.AddType(ft)

	var locals []wasm.ValType
	for _, lt := range f.Locals[len(f.Params):] {
		locals = append(locals, wasmType(lt))
	}

	hasFrame := f.FrameSize > 0
	if hasFrame {
		g.fpLocal = len(f.Locals) + len(g.extraLoc)
		g.extraLoc = append(g.extraLoc, wasm.I32)
		// fp = sp - FrameSize; sp = fp
		g.emit(wasm.Instr{Op: wasm.OpGlobalGet, A: uint32(g.p.SPGlobal)})
		g.emit(wasm.Instr{Op: wasm.OpI32Const, Val: int64(f.FrameSize)})
		g.emit(wasm.Instr{Op: wasm.OpI32Sub})
		g.emit(wasm.Instr{Op: wasm.OpLocalTee, A: uint32(g.fpLocal)})
		g.emit(wasm.Instr{Op: wasm.OpGlobalSet, A: uint32(g.p.SPGlobal)})
	}

	// Function exit block: Return lowers to a br here so the epilogue runs
	// exactly once.
	bt := wasm.BlockNone
	if f.Ret != ir.Void {
		bt = int32(wasmType(f.Ret))
	}
	g.emit(wasm.Instr{Op: wasm.OpBlock, BlockType: bt})
	g.depth++
	g.exitDep = g.depth

	if err := g.stmts(f.Body); err != nil {
		return wasm.Function{}, err
	}
	if f.Ret != ir.Void {
		// Falling off the end of a value function traps (C UB).
		g.emit(wasm.Instr{Op: wasm.OpUnreachable})
	}
	g.emit(wasm.Instr{Op: wasm.OpEnd})
	g.depth--

	if hasFrame {
		// Epilogue: sp = fp + FrameSize.
		g.emit(wasm.Instr{Op: wasm.OpLocalGet, A: uint32(g.fpLocal)})
		g.emit(wasm.Instr{Op: wasm.OpI32Const, Val: int64(f.FrameSize)})
		g.emit(wasm.Instr{Op: wasm.OpI32Add})
		g.emit(wasm.Instr{Op: wasm.OpGlobalSet, A: uint32(g.p.SPGlobal)})
	}
	g.emit(wasm.Instr{Op: wasm.OpEnd})

	return wasm.Function{
		Type:   ti,
		Locals: append(locals, g.extraLoc...),
		Body:   g.code,
		Name:   f.Name,
	}, nil
}

func (g *wasmGen) stmts(body []ir.Stmt) error {
	for _, s := range body {
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *wasmGen) stmt(s ir.Stmt) error {
	switch st := s.(type) {
	case *ir.SetLocal:
		if err := g.expr(st.X); err != nil {
			return err
		}
		g.emit(wasm.Instr{Op: wasm.OpLocalSet, A: uint32(st.Local)})
	case *ir.SetGlobal:
		if err := g.expr(st.X); err != nil {
			return err
		}
		g.emit(wasm.Instr{Op: wasm.OpGlobalSet, A: uint32(st.Global)})
	case *ir.Store:
		if err := g.expr(st.Addr); err != nil {
			return err
		}
		if err := g.expr(st.X); err != nil {
			return err
		}
		op, align := storeOp(st.Mem)
		g.emit(wasm.Instr{Op: op, A: align})
	case *ir.EvalStmt:
		if err := g.expr(st.X); err != nil {
			return err
		}
		if st.X.ResultType() != ir.Void {
			g.emit(wasm.Instr{Op: wasm.OpDrop})
		}
	case *ir.If:
		if err := g.expr(st.Cond); err != nil {
			return err
		}
		g.emit(wasm.Instr{Op: wasm.OpIf, BlockType: wasm.BlockNone})
		g.depth++
		if err := g.stmts(st.Then); err != nil {
			return err
		}
		if len(st.Else) > 0 {
			g.emit(wasm.Instr{Op: wasm.OpElse})
			if err := g.stmts(st.Else); err != nil {
				return err
			}
		}
		g.emit(wasm.Instr{Op: wasm.OpEnd})
		g.depth--
	case *ir.Loop:
		return g.loop(st)
	case *ir.Break:
		g.br(g.brks[len(g.brks)-1])
	case *ir.Continue:
		g.br(g.conts[len(g.conts)-1])
	case *ir.Return:
		if st.X != nil {
			if err := g.expr(st.X); err != nil {
				return err
			}
		}
		g.br(g.exitDep)
	case *ir.Switch:
		return g.switchStmt(st)
	case *ir.VecSection:
		// No SIMD in the Wasm MVP: shadow lanes execute as plain scalar code.
		return g.stmts(st.Body)
	default:
		return fmt.Errorf("unhandled statement %T", s)
	}
	return nil
}

// br emits a branch to the block whose depth is target.
func (g *wasmGen) br(target int) {
	g.emit(wasm.Instr{Op: wasm.OpBr, A: uint32(g.depth - target)})
}

func (g *wasmGen) loop(st *ir.Loop) error {
	// block $brk { loop $top { [pre-test]; block $cont { body }; post;
	//              [post-test br $top / br $top] } }
	g.emit(wasm.Instr{Op: wasm.OpBlock, BlockType: wasm.BlockNone})
	g.depth++
	brkDepth := g.depth
	g.emit(wasm.Instr{Op: wasm.OpLoop, BlockType: wasm.BlockNone})
	g.depth++
	topDepth := g.depth

	if !st.PostTest && st.Cond != nil {
		if err := g.expr(st.Cond); err != nil {
			return err
		}
		g.emit(wasm.Instr{Op: wasm.OpI32Eqz})
		g.emit(wasm.Instr{Op: wasm.OpBrIf, A: uint32(g.depth - brkDepth)})
	}

	needCont := containsContinue(st.Body)
	contDepth := topDepth
	if needCont {
		g.emit(wasm.Instr{Op: wasm.OpBlock, BlockType: wasm.BlockNone})
		g.depth++
		contDepth = g.depth
	}
	g.brks = append(g.brks, brkDepth)
	g.conts = append(g.conts, contDepth)
	err := g.stmts(st.Body)
	g.brks = g.brks[:len(g.brks)-1]
	g.conts = g.conts[:len(g.conts)-1]
	if err != nil {
		return err
	}
	if needCont {
		g.emit(wasm.Instr{Op: wasm.OpEnd})
		g.depth--
	}
	if err := g.stmts(st.Post); err != nil {
		return err
	}
	if st.PostTest {
		if st.Cond != nil {
			if err := g.expr(st.Cond); err != nil {
				return err
			}
			g.emit(wasm.Instr{Op: wasm.OpBrIf, A: uint32(g.depth - topDepth)})
		} else {
			g.emit(wasm.Instr{Op: wasm.OpBr, A: uint32(g.depth - topDepth)})
		}
	} else {
		g.emit(wasm.Instr{Op: wasm.OpBr, A: uint32(g.depth - topDepth)})
	}
	g.emit(wasm.Instr{Op: wasm.OpEnd}) // loop
	g.depth--
	g.emit(wasm.Instr{Op: wasm.OpEnd}) // block
	g.depth--
	return nil
}

func containsContinue(body []ir.Stmt) bool { return ir.ContainsContinue(body) }

func (g *wasmGen) switchStmt(st *ir.Switch) error {
	// Decide dense br_table vs compare chain.
	var minV, maxV int64
	n := 0
	for _, cs := range st.Cases {
		for _, v := range cs.Vals {
			if n == 0 || v < minV {
				minV = v
			}
			if n == 0 || v > maxV {
				maxV = v
			}
			n++
		}
	}
	dense := n > 0 && maxV-minV < 128 && int64(n)*3 >= maxV-minV

	// Outer break block.
	g.emit(wasm.Instr{Op: wasm.OpBlock, BlockType: wasm.BlockNone})
	g.depth++
	brkDepth := g.depth
	g.brks = append(g.brks, brkDepth)
	defer func() { g.brks = g.brks[:len(g.brks)-1] }()

	if !dense {
		// Compare chain: tag cached in a scratch local.
		tagLocal := g.scratch(wasm.I32)
		if err := g.expr(st.Tag); err != nil {
			return err
		}
		g.emit(wasm.Instr{Op: wasm.OpLocalSet, A: uint32(tagLocal)})
		for _, cs := range st.Cases {
			// if (tag == v0 || tag == v1 ...) { body; br $brk }
			for vi, v := range cs.Vals {
				g.emit(wasm.Instr{Op: wasm.OpLocalGet, A: uint32(tagLocal)})
				g.emit(wasm.Instr{Op: wasm.OpI32Const, Val: int64(int32(v))})
				g.emit(wasm.Instr{Op: wasm.OpI32Eq})
				if vi > 0 {
					g.emit(wasm.Instr{Op: wasm.OpI32Or})
				}
			}
			g.emit(wasm.Instr{Op: wasm.OpIf, BlockType: wasm.BlockNone})
			g.depth++
			if err := g.stmts(cs.Body); err != nil {
				return err
			}
			g.br(brkDepth)
			g.emit(wasm.Instr{Op: wasm.OpEnd})
			g.depth--
		}
		if err := g.stmts(st.Default); err != nil {
			return err
		}
		g.emit(wasm.Instr{Op: wasm.OpEnd})
		g.depth--
		return nil
	}

	// Dense: nested case blocks + br_table.
	// block $brk { block $def { block $cK ... block $c0 {
	//     tag - min; br_table c0..cK $def
	// } body0; br $brk } ... } default }
	k := len(st.Cases)
	for i := k; i >= 1; i-- {
		g.emit(wasm.Instr{Op: wasm.OpBlock, BlockType: wasm.BlockNone}) // default + cases
		g.depth++
	}
	caseDepth := make([]int, k) // depth value of each case's block
	// Blocks were pushed: first pushed is default (outermost of this
	// group)... we pushed k blocks: innermost corresponds to case 0.
	defDepth := brkDepth + 1
	// Actually: we need k case blocks plus one default block.
	g.emit(wasm.Instr{Op: wasm.OpBlock, BlockType: wasm.BlockNone})
	g.depth++
	for i := 0; i < k; i++ {
		caseDepth[i] = g.depth - i // innermost block = case 0
	}
	_ = defDepth

	if err := g.expr(st.Tag); err != nil {
		return err
	}
	if minV != 0 {
		g.emit(wasm.Instr{Op: wasm.OpI32Const, Val: int64(int32(minV))})
		g.emit(wasm.Instr{Op: wasm.OpI32Sub})
	}
	// Build the jump table over [0, maxV-minV].
	span := int(maxV - minV + 1)
	targets := make([]uint32, span)
	defaultLbl := uint32(g.depth - (brkDepth + 1)) // the outermost of the pushed group = default block
	for j := 0; j < span; j++ {
		targets[j] = defaultLbl
	}
	for ci, cs := range st.Cases {
		for _, v := range cs.Vals {
			targets[v-minV] = uint32(g.depth - caseDepth[ci])
		}
	}
	g.emit(wasm.Instr{Op: wasm.OpBrTable, Targets: targets, A: defaultLbl})
	// Close the innermost block (case 0's landing), then emit bodies.
	for i := 0; i < k; i++ {
		g.emit(wasm.Instr{Op: wasm.OpEnd})
		g.depth--
		if err := g.stmts(st.Cases[i].Body); err != nil {
			return err
		}
		g.br(brkDepth)
	}
	g.emit(wasm.Instr{Op: wasm.OpEnd}) // default block
	g.depth--
	if err := g.stmts(st.Default); err != nil {
		return err
	}
	g.emit(wasm.Instr{Op: wasm.OpEnd}) // break block
	g.depth--
	return nil
}

// scratch allocates an extra local of the given type.
func (g *wasmGen) scratch(t wasm.ValType) int {
	idx := len(g.f.Locals) + len(g.extraLoc)
	g.extraLoc = append(g.extraLoc, t)
	return idx
}

func storeOp(m ir.MemType) (wasm.Opcode, uint32) {
	switch m {
	case ir.MemI8S, ir.MemI8U:
		return wasm.OpI32Store8, 0
	case ir.MemI16S, ir.MemI16U:
		return wasm.OpI32Store16, 1
	case ir.MemI32:
		return wasm.OpI32Store, 2
	case ir.MemI64:
		return wasm.OpI64Store, 3
	case ir.MemF32:
		return wasm.OpF32Store, 2
	default:
		return wasm.OpF64Store, 3
	}
}

func loadOp(m ir.MemType) (wasm.Opcode, uint32) {
	switch m {
	case ir.MemI8S:
		return wasm.OpI32Load8S, 0
	case ir.MemI8U:
		return wasm.OpI32Load8U, 0
	case ir.MemI16S:
		return wasm.OpI32Load16S, 1
	case ir.MemI16U:
		return wasm.OpI32Load16U, 1
	case ir.MemI32:
		return wasm.OpI32Load, 2
	case ir.MemI64:
		return wasm.OpI64Load, 3
	case ir.MemF32:
		return wasm.OpF32Load, 2
	default:
		return wasm.OpF64Load, 3
	}
}

func (g *wasmGen) expr(e ir.Expr) error {
	switch x := e.(type) {
	case *ir.Const:
		g.emitConst(x)
	case *ir.GetLocal:
		g.emit(wasm.Instr{Op: wasm.OpLocalGet, A: uint32(x.Local)})
	case *ir.GetGlobal:
		g.emit(wasm.Instr{Op: wasm.OpGlobalGet, A: uint32(x.Global)})
	case *ir.FrameAddr:
		g.emit(wasm.Instr{Op: wasm.OpLocalGet, A: uint32(g.fpLocal)})
		if x.Off != 0 {
			g.emit(wasm.Instr{Op: wasm.OpI32Const, Val: int64(x.Off)})
			g.emit(wasm.Instr{Op: wasm.OpI32Add})
		}
	case *ir.Load:
		if err := g.expr(x.Addr); err != nil {
			return err
		}
		op, align := loadOp(x.Mem)
		g.emit(wasm.Instr{Op: op, A: align})
	case *ir.Bin:
		if err := g.expr(x.X); err != nil {
			return err
		}
		if err := g.expr(x.Y); err != nil {
			return err
		}
		op, err := binOpcode(x)
		if err != nil {
			return err
		}
		g.emit(wasm.Instr{Op: op})
	case *ir.Un:
		return g.unary(x)
	case *ir.Conv:
		return g.conv(x)
	case *ir.Call:
		for _, a := range x.Args {
			if err := g.expr(a); err != nil {
				return err
			}
		}
		g.emit(wasm.Instr{Op: wasm.OpCall, A: g.nImports + uint32(x.Func)})
	case *ir.CallHost:
		return g.callHost(x)
	case *ir.Ternary:
		if err := g.expr(x.C); err != nil {
			return err
		}
		g.emit(wasm.Instr{Op: wasm.OpIf, BlockType: int32(wasmType(x.T))})
		g.depth++
		if err := g.expr(x.X); err != nil {
			return err
		}
		g.emit(wasm.Instr{Op: wasm.OpElse})
		if err := g.expr(x.Y); err != nil {
			return err
		}
		g.emit(wasm.Instr{Op: wasm.OpEnd})
		g.depth--
	case *ir.Seq:
		if err := g.stmts(x.Stmts); err != nil {
			return err
		}
		return g.expr(x.X)
	default:
		return fmt.Errorf("unhandled expression %T", e)
	}
	return nil
}

func (g *wasmGen) emitConst(x *ir.Const) {
	switch x.T {
	case ir.I32:
		g.emit(wasm.Instr{Op: wasm.OpI32Const, Val: int64(int32(x.Raw))})
	case ir.I64:
		g.emit(wasm.Instr{Op: wasm.OpI64Const, Val: x.Raw})
	case ir.F32:
		f := math.Float32frombits(uint32(x.Raw))
		if g.opts.CompactF64Consts && float32(int32(f)) == f && f == float32(math.Trunc(float64(f))) &&
			math.Abs(float64(f)) <= 2147483647 && !(f == 0 && math.Signbit(float64(f))) {
			g.emit(wasm.Instr{Op: wasm.OpI32Const, Val: int64(int32(f))})
			g.emit(wasm.Instr{Op: wasm.OpF32ConvertI32S})
			return
		}
		g.emit(wasm.Instr{Op: wasm.OpF32Const, Val: x.Raw})
	case ir.F64:
		f := math.Float64frombits(uint64(x.Raw))
		if g.opts.CompactF64Consts && f == math.Trunc(f) &&
			math.Abs(f) <= 2147483647 && !(f == 0 && math.Signbit(f)) {
			g.emit(wasm.Instr{Op: wasm.OpI32Const, Val: int64(int32(f))})
			g.emit(wasm.Instr{Op: wasm.OpF64ConvertI32S})
			return
		}
		g.emit(wasm.Instr{Op: wasm.OpF64Const, Val: x.Raw})
	}
}

func (g *wasmGen) unary(x *ir.Un) error {
	switch x.Op {
	case ir.OpNeg:
		switch x.T {
		case ir.I32:
			g.emit(wasm.Instr{Op: wasm.OpI32Const, Val: 0})
			if err := g.expr(x.X); err != nil {
				return err
			}
			g.emit(wasm.Instr{Op: wasm.OpI32Sub})
		case ir.I64:
			g.emit(wasm.Instr{Op: wasm.OpI64Const, Val: 0})
			if err := g.expr(x.X); err != nil {
				return err
			}
			g.emit(wasm.Instr{Op: wasm.OpI64Sub})
		case ir.F32:
			if err := g.expr(x.X); err != nil {
				return err
			}
			g.emit(wasm.Instr{Op: wasm.OpF32Neg})
		case ir.F64:
			if err := g.expr(x.X); err != nil {
				return err
			}
			g.emit(wasm.Instr{Op: wasm.OpF64Neg})
		}
	case ir.OpEqz:
		if err := g.expr(x.X); err != nil {
			return err
		}
		if x.T == ir.I64 {
			g.emit(wasm.Instr{Op: wasm.OpI64Eqz})
		} else {
			g.emit(wasm.Instr{Op: wasm.OpI32Eqz})
		}
	case ir.OpBitNot:
		if err := g.expr(x.X); err != nil {
			return err
		}
		if x.T == ir.I64 {
			g.emit(wasm.Instr{Op: wasm.OpI64Const, Val: -1})
			g.emit(wasm.Instr{Op: wasm.OpI64Xor})
		} else {
			g.emit(wasm.Instr{Op: wasm.OpI32Const, Val: -1})
			g.emit(wasm.Instr{Op: wasm.OpI32Xor})
		}
	case ir.OpSqrt, ir.OpAbs, ir.OpFloor, ir.OpCeil, ir.OpTrunc:
		if err := g.expr(x.X); err != nil {
			return err
		}
		var op wasm.Opcode
		if x.T == ir.F32 {
			switch x.Op {
			case ir.OpSqrt:
				op = wasm.OpF32Sqrt
			case ir.OpAbs:
				op = wasm.OpF32Abs
			case ir.OpFloor:
				op = wasm.OpF32Floor
			case ir.OpCeil:
				op = wasm.OpF32Ceil
			case ir.OpTrunc:
				op = wasm.OpF32Trunc
			}
		} else {
			switch x.Op {
			case ir.OpSqrt:
				op = wasm.OpF64Sqrt
			case ir.OpAbs:
				op = wasm.OpF64Abs
			case ir.OpFloor:
				op = wasm.OpF64Floor
			case ir.OpCeil:
				op = wasm.OpF64Ceil
			case ir.OpTrunc:
				op = wasm.OpF64Trunc
			}
		}
		g.emit(wasm.Instr{Op: op})
	default:
		return fmt.Errorf("unhandled unary %v", x.Op)
	}
	return nil
}

func (g *wasmGen) conv(x *ir.Conv) error {
	if err := g.expr(x.X); err != nil {
		return err
	}
	// Narrowing within i32: shift pair or mask.
	if x.From == ir.I32 && x.To == ir.I32 && x.Narrow != 0 {
		g.emitNarrow(x.Narrow, x.NarrowSigned)
		return nil
	}
	var op wasm.Opcode
	switch {
	case x.From == ir.I32 && x.To == ir.I64 && x.Signed:
		op = wasm.OpI64ExtendI32S
	case x.From == ir.I32 && x.To == ir.I64:
		op = wasm.OpI64ExtendI32U
	case x.From == ir.I64 && x.To == ir.I32:
		op = wasm.OpI32WrapI64
	case x.From == ir.I32 && x.To == ir.F32 && x.Signed:
		op = wasm.OpF32ConvertI32S
	case x.From == ir.I32 && x.To == ir.F32:
		op = wasm.OpF32ConvertI32U
	case x.From == ir.I32 && x.To == ir.F64 && x.Signed:
		op = wasm.OpF64ConvertI32S
	case x.From == ir.I32 && x.To == ir.F64:
		op = wasm.OpF64ConvertI32U
	case x.From == ir.I64 && x.To == ir.F32 && x.Signed:
		op = wasm.OpF32ConvertI64S
	case x.From == ir.I64 && x.To == ir.F32:
		op = wasm.OpF32ConvertI64U
	case x.From == ir.I64 && x.To == ir.F64 && x.Signed:
		op = wasm.OpF64ConvertI64S
	case x.From == ir.I64 && x.To == ir.F64:
		op = wasm.OpF64ConvertI64U
	case x.From == ir.F32 && x.To == ir.I32 && x.Signed:
		op = wasm.OpI32TruncF32S
	case x.From == ir.F32 && x.To == ir.I32:
		op = wasm.OpI32TruncF32U
	case x.From == ir.F64 && x.To == ir.I32 && x.Signed:
		op = wasm.OpI32TruncF64S
	case x.From == ir.F64 && x.To == ir.I32:
		op = wasm.OpI32TruncF64U
	case x.From == ir.F32 && x.To == ir.I64 && x.Signed:
		op = wasm.OpI64TruncF32S
	case x.From == ir.F32 && x.To == ir.I64:
		op = wasm.OpI64TruncF32U
	case x.From == ir.F64 && x.To == ir.I64 && x.Signed:
		op = wasm.OpI64TruncF64S
	case x.From == ir.F64 && x.To == ir.I64:
		op = wasm.OpI64TruncF64U
	case x.From == ir.F32 && x.To == ir.F64:
		op = wasm.OpF64PromoteF32
	case x.From == ir.F64 && x.To == ir.F32:
		op = wasm.OpF32DemoteF64
	case x.From == x.To:
		return nil
	default:
		return fmt.Errorf("unhandled conversion %v->%v", x.From, x.To)
	}
	g.emit(wasm.Instr{Op: op})
	if x.Narrow != 0 && x.To == ir.I32 {
		g.emitNarrow(x.Narrow, x.NarrowSigned)
	}
	return nil
}

// emitNarrow truncates the i32 on top of the stack to 8 or 16 bits.
func (g *wasmGen) emitNarrow(bits uint8, signed bool) {
	if signed {
		sh := int64(32 - int(bits))
		g.emit(wasm.Instr{Op: wasm.OpI32Const, Val: sh})
		g.emit(wasm.Instr{Op: wasm.OpI32Shl})
		g.emit(wasm.Instr{Op: wasm.OpI32Const, Val: sh})
		g.emit(wasm.Instr{Op: wasm.OpI32ShrS})
	} else {
		mask := int64(1)<<bits - 1
		g.emit(wasm.Instr{Op: wasm.OpI32Const, Val: mask})
		g.emit(wasm.Instr{Op: wasm.OpI32And})
	}
}

func (g *wasmGen) callHost(x *ir.CallHost) error {
	switch x.Name {
	case "memsize":
		g.emit(wasm.Instr{Op: wasm.OpMemorySize})
		return nil
	case "memgrow":
		if err := g.expr(x.Args[0]); err != nil {
			return err
		}
		g.emit(wasm.Instr{Op: wasm.OpMemoryGrow})
		return nil
	case "heapbase":
		g.emit(wasm.Instr{Op: wasm.OpI32Const, Val: int64(g.p.StackTop)})
		return nil
	case "heaplimit":
		g.emit(wasm.Instr{Op: wasm.OpI32Const, Val: int64(g.p.StackTop + g.p.HeapLimit)})
		return nil
	case "trap":
		g.emit(wasm.Instr{Op: wasm.OpUnreachable})
		return nil
	}
	idx, ok := g.importIdx[x.Name]
	if !ok {
		return fmt.Errorf("unknown host function %q", x.Name)
	}
	for _, a := range x.Args {
		if err := g.expr(a); err != nil {
			return err
		}
	}
	g.emit(wasm.Instr{Op: wasm.OpCall, A: idx})
	return nil
}

func binOpcode(x *ir.Bin) (wasm.Opcode, error) {
	type key struct {
		op ir.BinOp
		t  ir.Type
		u  bool
	}
	k := key{x.Op, x.T, x.Unsigned}
	if x.T.IsFloat() {
		k.u = false
	}
	switch k {
	case key{ir.OpAdd, ir.I32, false}, key{ir.OpAdd, ir.I32, true}:
		return wasm.OpI32Add, nil
	case key{ir.OpSub, ir.I32, false}, key{ir.OpSub, ir.I32, true}:
		return wasm.OpI32Sub, nil
	case key{ir.OpMul, ir.I32, false}, key{ir.OpMul, ir.I32, true}:
		return wasm.OpI32Mul, nil
	case key{ir.OpDiv, ir.I32, false}:
		return wasm.OpI32DivS, nil
	case key{ir.OpDiv, ir.I32, true}:
		return wasm.OpI32DivU, nil
	case key{ir.OpRem, ir.I32, false}:
		return wasm.OpI32RemS, nil
	case key{ir.OpRem, ir.I32, true}:
		return wasm.OpI32RemU, nil
	case key{ir.OpAnd, ir.I32, false}, key{ir.OpAnd, ir.I32, true}:
		return wasm.OpI32And, nil
	case key{ir.OpOr, ir.I32, false}, key{ir.OpOr, ir.I32, true}:
		return wasm.OpI32Or, nil
	case key{ir.OpXor, ir.I32, false}, key{ir.OpXor, ir.I32, true}:
		return wasm.OpI32Xor, nil
	case key{ir.OpShl, ir.I32, false}, key{ir.OpShl, ir.I32, true}:
		return wasm.OpI32Shl, nil
	case key{ir.OpShr, ir.I32, false}:
		return wasm.OpI32ShrS, nil
	case key{ir.OpShr, ir.I32, true}:
		return wasm.OpI32ShrU, nil
	case key{ir.OpEq, ir.I32, false}, key{ir.OpEq, ir.I32, true}:
		return wasm.OpI32Eq, nil
	case key{ir.OpNe, ir.I32, false}, key{ir.OpNe, ir.I32, true}:
		return wasm.OpI32Ne, nil
	case key{ir.OpLt, ir.I32, false}:
		return wasm.OpI32LtS, nil
	case key{ir.OpLt, ir.I32, true}:
		return wasm.OpI32LtU, nil
	case key{ir.OpLe, ir.I32, false}:
		return wasm.OpI32LeS, nil
	case key{ir.OpLe, ir.I32, true}:
		return wasm.OpI32LeU, nil
	case key{ir.OpGt, ir.I32, false}:
		return wasm.OpI32GtS, nil
	case key{ir.OpGt, ir.I32, true}:
		return wasm.OpI32GtU, nil
	case key{ir.OpGe, ir.I32, false}:
		return wasm.OpI32GeS, nil
	case key{ir.OpGe, ir.I32, true}:
		return wasm.OpI32GeU, nil

	case key{ir.OpAdd, ir.I64, false}, key{ir.OpAdd, ir.I64, true}:
		return wasm.OpI64Add, nil
	case key{ir.OpSub, ir.I64, false}, key{ir.OpSub, ir.I64, true}:
		return wasm.OpI64Sub, nil
	case key{ir.OpMul, ir.I64, false}, key{ir.OpMul, ir.I64, true}:
		return wasm.OpI64Mul, nil
	case key{ir.OpDiv, ir.I64, false}:
		return wasm.OpI64DivS, nil
	case key{ir.OpDiv, ir.I64, true}:
		return wasm.OpI64DivU, nil
	case key{ir.OpRem, ir.I64, false}:
		return wasm.OpI64RemS, nil
	case key{ir.OpRem, ir.I64, true}:
		return wasm.OpI64RemU, nil
	case key{ir.OpAnd, ir.I64, false}, key{ir.OpAnd, ir.I64, true}:
		return wasm.OpI64And, nil
	case key{ir.OpOr, ir.I64, false}, key{ir.OpOr, ir.I64, true}:
		return wasm.OpI64Or, nil
	case key{ir.OpXor, ir.I64, false}, key{ir.OpXor, ir.I64, true}:
		return wasm.OpI64Xor, nil
	case key{ir.OpShl, ir.I64, false}, key{ir.OpShl, ir.I64, true}:
		return wasm.OpI64Shl, nil
	case key{ir.OpShr, ir.I64, false}:
		return wasm.OpI64ShrS, nil
	case key{ir.OpShr, ir.I64, true}:
		return wasm.OpI64ShrU, nil
	case key{ir.OpEq, ir.I64, false}, key{ir.OpEq, ir.I64, true}:
		return wasm.OpI64Eq, nil
	case key{ir.OpNe, ir.I64, false}, key{ir.OpNe, ir.I64, true}:
		return wasm.OpI64Ne, nil
	case key{ir.OpLt, ir.I64, false}:
		return wasm.OpI64LtS, nil
	case key{ir.OpLt, ir.I64, true}:
		return wasm.OpI64LtU, nil
	case key{ir.OpLe, ir.I64, false}:
		return wasm.OpI64LeS, nil
	case key{ir.OpLe, ir.I64, true}:
		return wasm.OpI64LeU, nil
	case key{ir.OpGt, ir.I64, false}:
		return wasm.OpI64GtS, nil
	case key{ir.OpGt, ir.I64, true}:
		return wasm.OpI64GtU, nil
	case key{ir.OpGe, ir.I64, false}:
		return wasm.OpI64GeS, nil
	case key{ir.OpGe, ir.I64, true}:
		return wasm.OpI64GeU, nil

	case key{ir.OpAdd, ir.F32, false}:
		return wasm.OpF32Add, nil
	case key{ir.OpSub, ir.F32, false}:
		return wasm.OpF32Sub, nil
	case key{ir.OpMul, ir.F32, false}:
		return wasm.OpF32Mul, nil
	case key{ir.OpDiv, ir.F32, false}:
		return wasm.OpF32Div, nil
	case key{ir.OpMin, ir.F32, false}:
		return wasm.OpF32Min, nil
	case key{ir.OpMax, ir.F32, false}:
		return wasm.OpF32Max, nil
	case key{ir.OpEq, ir.F32, false}:
		return wasm.OpF32Eq, nil
	case key{ir.OpNe, ir.F32, false}:
		return wasm.OpF32Ne, nil
	case key{ir.OpLt, ir.F32, false}:
		return wasm.OpF32Lt, nil
	case key{ir.OpLe, ir.F32, false}:
		return wasm.OpF32Le, nil
	case key{ir.OpGt, ir.F32, false}:
		return wasm.OpF32Gt, nil
	case key{ir.OpGe, ir.F32, false}:
		return wasm.OpF32Ge, nil

	case key{ir.OpAdd, ir.F64, false}:
		return wasm.OpF64Add, nil
	case key{ir.OpSub, ir.F64, false}:
		return wasm.OpF64Sub, nil
	case key{ir.OpMul, ir.F64, false}:
		return wasm.OpF64Mul, nil
	case key{ir.OpDiv, ir.F64, false}:
		return wasm.OpF64Div, nil
	case key{ir.OpMin, ir.F64, false}:
		return wasm.OpF64Min, nil
	case key{ir.OpMax, ir.F64, false}:
		return wasm.OpF64Max, nil
	case key{ir.OpEq, ir.F64, false}:
		return wasm.OpF64Eq, nil
	case key{ir.OpNe, ir.F64, false}:
		return wasm.OpF64Ne, nil
	case key{ir.OpLt, ir.F64, false}:
		return wasm.OpF64Lt, nil
	case key{ir.OpLe, ir.F64, false}:
		return wasm.OpF64Le, nil
	case key{ir.OpGt, ir.F64, false}:
		return wasm.OpF64Gt, nil
	case key{ir.OpGe, ir.F64, false}:
		return wasm.OpF64Ge, nil
	}
	return 0, fmt.Errorf("no wasm opcode for %v %v unsigned=%v", x.Op, x.T, x.Unsigned)
}
