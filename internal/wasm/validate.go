package wasm

import "fmt"

// Validate type-checks the module per the core specification's validation
// algorithm: every function body must respect stack discipline, all indices
// must be in range, and control structure must nest correctly.
func Validate(m *Module) error {
	for i, imp := range m.Imports {
		if int(imp.Type) >= len(m.Types) {
			return fmt.Errorf("wasm: import %d (%s.%s): type index out of range", i, imp.Module, imp.Field)
		}
	}
	for i := range m.Funcs {
		if int(m.Funcs[i].Type) >= len(m.Types) {
			return fmt.Errorf("wasm: func %d: type index out of range", i)
		}
	}
	for _, e := range m.Exports {
		switch e.Kind {
		case ExportFunc:
			if _, err := m.FuncTypeOf(e.Idx); err != nil {
				return fmt.Errorf("wasm: export %q: %w", e.Name, err)
			}
		case ExportGlobal:
			if int(e.Idx) >= len(m.Globals) {
				return fmt.Errorf("wasm: export %q: global index out of range", e.Name)
			}
		case ExportMemory:
			if m.Mem == nil || e.Idx != 0 {
				return fmt.Errorf("wasm: export %q: no such memory", e.Name)
			}
		default:
			return fmt.Errorf("wasm: export %q: bad kind %d", e.Name, e.Kind)
		}
	}
	if m.Mem != nil && (m.Mem.Min > MaxPages || m.Mem.HasMax && m.Mem.Max > MaxPages) {
		return fmt.Errorf("wasm: memory limits exceed %d pages", MaxPages)
	}
	if m.Mem != nil && m.Mem.HasMax && m.Mem.Max < m.Mem.Min {
		return fmt.Errorf("wasm: memory max %d < min %d", m.Mem.Max, m.Mem.Min)
	}
	for _, d := range m.Data {
		if m.Mem == nil {
			return fmt.Errorf("wasm: data segment without memory")
		}
		_ = d
	}
	for i := range m.Funcs {
		if err := validateBody(m, &m.Funcs[i]); err != nil {
			name := m.Funcs[i].Name
			if name == "" {
				name = fmt.Sprintf("#%d", i)
			}
			return fmt.Errorf("wasm: func %s: %w", name, err)
		}
	}
	return nil
}

// unknownType marks a stack slot of polymorphic type in unreachable code.
const unknownType ValType = 0

type ctrlFrame struct {
	op          Opcode // OpBlock, OpLoop, OpIf, or OpEnd for the function frame
	blockType   int32
	startHeight int
	unreachable bool
}

type validator struct {
	m      *Module
	f      *Function
	params []ValType
	stack  []ValType
	ctrls  []ctrlFrame
}

func validateBody(m *Module, f *Function) error {
	ft := m.Types[f.Type]
	v := &validator{m: m, f: f, params: ft.Params}
	resultBT := BlockNone
	if len(ft.Results) == 1 {
		resultBT = int32(ft.Results[0])
	}
	v.ctrls = append(v.ctrls, ctrlFrame{op: OpEnd, blockType: resultBT})
	for pc := range f.Body {
		if len(v.ctrls) == 0 {
			return fmt.Errorf("instr %d (%v): code after the function's closing end", pc, f.Body[pc].Op)
		}
		if err := v.step(&f.Body[pc]); err != nil {
			return fmt.Errorf("instr %d (%v): %w", pc, f.Body[pc].Op, err)
		}
	}
	if len(v.ctrls) != 0 {
		return fmt.Errorf("unbalanced control structure: %d frames left open", len(v.ctrls))
	}
	return nil
}

func (v *validator) push(t ValType) { v.stack = append(v.stack, t) }

func (v *validator) pop(want ValType) error {
	fr := &v.ctrls[len(v.ctrls)-1]
	if len(v.stack) == fr.startHeight {
		if fr.unreachable {
			return nil // polymorphic stack
		}
		return fmt.Errorf("stack underflow, want %v", want)
	}
	got := v.stack[len(v.stack)-1]
	v.stack = v.stack[:len(v.stack)-1]
	if got != want && got != unknownType && want != unknownType {
		return fmt.Errorf("type mismatch: want %v, got %v", want, got)
	}
	return nil
}

func (v *validator) popAny() (ValType, error) {
	fr := &v.ctrls[len(v.ctrls)-1]
	if len(v.stack) == fr.startHeight {
		if fr.unreachable {
			return unknownType, nil
		}
		return 0, fmt.Errorf("stack underflow")
	}
	got := v.stack[len(v.stack)-1]
	v.stack = v.stack[:len(v.stack)-1]
	return got, nil
}

func (v *validator) localType(idx uint32) (ValType, error) {
	if int(idx) < len(v.params) {
		return v.params[idx], nil
	}
	li := int(idx) - len(v.params)
	if li < len(v.f.Locals) {
		return v.f.Locals[li], nil
	}
	return 0, fmt.Errorf("local index %d out of range", idx)
}

func (v *validator) labelArity(depth uint32) (ValType, bool, error) {
	if int(depth) >= len(v.ctrls) {
		return 0, false, fmt.Errorf("branch depth %d out of range", depth)
	}
	fr := v.ctrls[len(v.ctrls)-1-int(depth)]
	// Branches to a loop target its beginning (no values); branches to
	// block/if/function-end carry the block result.
	if fr.op == OpLoop || fr.blockType == BlockNone {
		return 0, false, nil
	}
	return ValType(byte(fr.blockType)), true, nil
}

func (v *validator) markUnreachable() {
	fr := &v.ctrls[len(v.ctrls)-1]
	v.stack = v.stack[:fr.startHeight]
	fr.unreachable = true
}

func (v *validator) step(in *Instr) error {
	switch in.Op {
	case OpNop:
	case OpUnreachable:
		v.markUnreachable()
	case OpBlock, OpLoop, OpIf:
		if in.Op == OpIf {
			if err := v.pop(I32); err != nil {
				return err
			}
		}
		if in.BlockType != BlockNone && !ValType(byte(in.BlockType)).Valid() {
			return fmt.Errorf("bad block type")
		}
		v.ctrls = append(v.ctrls, ctrlFrame{op: in.Op, blockType: in.BlockType, startHeight: len(v.stack)})
	case OpElse:
		if len(v.ctrls) < 2 || v.ctrls[len(v.ctrls)-1].op != OpIf {
			return fmt.Errorf("else without if")
		}
		fr := &v.ctrls[len(v.ctrls)-1]
		if err := v.endFrame(fr); err != nil {
			return err
		}
		// Reset for the else arm.
		v.stack = v.stack[:fr.startHeight]
		fr.unreachable = false
		fr.op = OpElse
	case OpEnd:
		if len(v.ctrls) == 0 {
			return fmt.Errorf("end without open frame")
		}
		fr := &v.ctrls[len(v.ctrls)-1]
		if fr.op == OpIf && fr.blockType != BlockNone {
			return fmt.Errorf("if with result type requires else")
		}
		if err := v.endFrame(fr); err != nil {
			return err
		}
		bt := fr.blockType
		v.stack = v.stack[:fr.startHeight]
		v.ctrls = v.ctrls[:len(v.ctrls)-1]
		if bt != BlockNone {
			v.push(ValType(byte(bt)))
		}
	case OpBr:
		t, hasVal, err := v.labelArity(in.A)
		if err != nil {
			return err
		}
		if hasVal {
			if err := v.pop(t); err != nil {
				return err
			}
		}
		v.markUnreachable()
	case OpBrIf:
		if err := v.pop(I32); err != nil {
			return err
		}
		t, hasVal, err := v.labelArity(in.A)
		if err != nil {
			return err
		}
		if hasVal {
			if err := v.pop(t); err != nil {
				return err
			}
			v.push(t)
		}
	case OpBrTable:
		if err := v.pop(I32); err != nil {
			return err
		}
		dt, dHas, err := v.labelArity(in.A)
		if err != nil {
			return err
		}
		for _, tgt := range in.Targets {
			t, has, err := v.labelArity(tgt)
			if err != nil {
				return err
			}
			if has != dHas || (has && t != dt) {
				return fmt.Errorf("br_table label arity mismatch")
			}
		}
		if dHas {
			if err := v.pop(dt); err != nil {
				return err
			}
		}
		v.markUnreachable()
	case OpReturn:
		ft := v.m.Types[v.f.Type]
		if len(ft.Results) == 1 {
			if err := v.pop(ft.Results[0]); err != nil {
				return err
			}
		}
		v.markUnreachable()
	case OpCall:
		ft, err := v.m.FuncTypeOf(in.A)
		if err != nil {
			return err
		}
		for i := len(ft.Params) - 1; i >= 0; i-- {
			if err := v.pop(ft.Params[i]); err != nil {
				return err
			}
		}
		for _, r := range ft.Results {
			v.push(r)
		}
	case OpDrop:
		if _, err := v.popAny(); err != nil {
			return err
		}
	case OpSelect:
		if err := v.pop(I32); err != nil {
			return err
		}
		t1, err := v.popAny()
		if err != nil {
			return err
		}
		t2, err := v.popAny()
		if err != nil {
			return err
		}
		if t1 != t2 && t1 != unknownType && t2 != unknownType {
			return fmt.Errorf("select operand types differ: %v vs %v", t1, t2)
		}
		if t1 == unknownType {
			t1 = t2
		}
		v.push(t1)
	case OpLocalGet:
		t, err := v.localType(in.A)
		if err != nil {
			return err
		}
		v.push(t)
	case OpLocalSet:
		t, err := v.localType(in.A)
		if err != nil {
			return err
		}
		return v.pop(t)
	case OpLocalTee:
		t, err := v.localType(in.A)
		if err != nil {
			return err
		}
		if err := v.pop(t); err != nil {
			return err
		}
		v.push(t)
	case OpGlobalGet:
		if int(in.A) >= len(v.m.Globals) {
			return fmt.Errorf("global index %d out of range", in.A)
		}
		v.push(v.m.Globals[in.A].Type)
	case OpGlobalSet:
		if int(in.A) >= len(v.m.Globals) {
			return fmt.Errorf("global index %d out of range", in.A)
		}
		if !v.m.Globals[in.A].Mutable {
			return fmt.Errorf("global %d is immutable", in.A)
		}
		return v.pop(v.m.Globals[in.A].Type)
	case OpMemorySize:
		if v.m.Mem == nil {
			return fmt.Errorf("no memory")
		}
		v.push(I32)
	case OpMemoryGrow:
		if v.m.Mem == nil {
			return fmt.Errorf("no memory")
		}
		if err := v.pop(I32); err != nil {
			return err
		}
		v.push(I32)
	case OpI32Const:
		v.push(I32)
	case OpI64Const:
		v.push(I64)
	case OpF32Const:
		v.push(F32)
	case OpF64Const:
		v.push(F64)
	default:
		if isMemAccess(in.Op) {
			return v.stepMemAccess(in)
		}
		return v.stepNumeric(in)
	}
	return nil
}

func (v *validator) endFrame(fr *ctrlFrame) error {
	if fr.blockType != BlockNone {
		if err := v.pop(ValType(byte(fr.blockType))); err != nil {
			return err
		}
	}
	if len(v.stack) != fr.startHeight && !fr.unreachable {
		return fmt.Errorf("%d values left on stack at block end", len(v.stack)-fr.startHeight)
	}
	return nil
}

// memAccessInfo returns (result/operand type, natural alignment exponent,
// isStore) for a memory instruction.
func memAccessInfo(op Opcode) (t ValType, natural uint32, store bool) {
	switch op {
	case OpI32Load, OpI32Store:
		return I32, 2, op == OpI32Store
	case OpI64Load, OpI64Store:
		return I64, 3, op == OpI64Store
	case OpF32Load, OpF32Store:
		return F32, 2, op == OpF32Store
	case OpF64Load, OpF64Store:
		return F64, 3, op == OpF64Store
	case OpI32Load8S, OpI32Load8U, OpI32Store8:
		return I32, 0, op == OpI32Store8
	case OpI32Load16S, OpI32Load16U, OpI32Store16:
		return I32, 1, op == OpI32Store16
	case OpI64Load8S, OpI64Load8U, OpI64Store8:
		return I64, 0, op == OpI64Store8
	case OpI64Load16S, OpI64Load16U, OpI64Store16:
		return I64, 1, op == OpI64Store16
	case OpI64Load32S, OpI64Load32U, OpI64Store32:
		return I64, 2, op == OpI64Store32
	}
	return 0, 0, false
}

func (v *validator) stepMemAccess(in *Instr) error {
	if v.m.Mem == nil {
		return fmt.Errorf("no memory")
	}
	t, natural, store := memAccessInfo(in.Op)
	if in.A > natural {
		return fmt.Errorf("alignment 2^%d exceeds natural alignment 2^%d", in.A, natural)
	}
	if store {
		if err := v.pop(t); err != nil {
			return err
		}
		return v.pop(I32) // address
	}
	if err := v.pop(I32); err != nil {
		return err
	}
	v.push(t)
	return nil
}

// numericSig describes operand and result types of a plain numeric opcode.
type numericSig struct {
	in  []ValType
	out ValType
}

func sig1(a, out ValType) numericSig    { return numericSig{[]ValType{a}, out} }
func sig2(a, b, out ValType) numericSig { return numericSig{[]ValType{a, b}, out} }

var numericSigs = buildNumericSigs()

func buildNumericSigs() map[Opcode]numericSig {
	m := map[Opcode]numericSig{
		OpI32Eqz: sig1(I32, I32),
		OpI64Eqz: sig1(I64, I32),
	}
	for op := OpI32Eq; op <= OpI32GeU; op++ {
		m[op] = sig2(I32, I32, I32)
	}
	for op := OpI64Eq; op <= OpI64GeU; op++ {
		m[op] = sig2(I64, I64, I32)
	}
	for op := OpF32Eq; op <= OpF32Ge; op++ {
		m[op] = sig2(F32, F32, I32)
	}
	for op := OpF64Eq; op <= OpF64Ge; op++ {
		m[op] = sig2(F64, F64, I32)
	}
	for op := OpI32Clz; op <= OpI32Popcnt; op++ {
		m[op] = sig1(I32, I32)
	}
	for op := OpI32Add; op <= OpI32Rotr; op++ {
		m[op] = sig2(I32, I32, I32)
	}
	for op := OpI64Clz; op <= OpI64Popcnt; op++ {
		m[op] = sig1(I64, I64)
	}
	for op := OpI64Add; op <= OpI64Rotr; op++ {
		m[op] = sig2(I64, I64, I64)
	}
	for op := OpF32Abs; op <= OpF32Sqrt; op++ {
		m[op] = sig1(F32, F32)
	}
	for op := OpF32Add; op <= OpF32Copysign; op++ {
		m[op] = sig2(F32, F32, F32)
	}
	for op := OpF64Abs; op <= OpF64Sqrt; op++ {
		m[op] = sig1(F64, F64)
	}
	for op := OpF64Add; op <= OpF64Copysign; op++ {
		m[op] = sig2(F64, F64, F64)
	}
	m[OpI32WrapI64] = sig1(I64, I32)
	m[OpI32TruncF32S] = sig1(F32, I32)
	m[OpI32TruncF32U] = sig1(F32, I32)
	m[OpI32TruncF64S] = sig1(F64, I32)
	m[OpI32TruncF64U] = sig1(F64, I32)
	m[OpI64ExtendI32S] = sig1(I32, I64)
	m[OpI64ExtendI32U] = sig1(I32, I64)
	m[OpI64TruncF32S] = sig1(F32, I64)
	m[OpI64TruncF32U] = sig1(F32, I64)
	m[OpI64TruncF64S] = sig1(F64, I64)
	m[OpI64TruncF64U] = sig1(F64, I64)
	m[OpF32ConvertI32S] = sig1(I32, F32)
	m[OpF32ConvertI32U] = sig1(I32, F32)
	m[OpF32ConvertI64S] = sig1(I64, F32)
	m[OpF32ConvertI64U] = sig1(I64, F32)
	m[OpF32DemoteF64] = sig1(F64, F32)
	m[OpF64ConvertI32S] = sig1(I32, F64)
	m[OpF64ConvertI32U] = sig1(I32, F64)
	m[OpF64ConvertI64S] = sig1(I64, F64)
	m[OpF64ConvertI64U] = sig1(I64, F64)
	m[OpF64PromoteF32] = sig1(F32, F64)
	m[OpI32ReinterpretF32] = sig1(F32, I32)
	m[OpI64ReinterpretF64] = sig1(F64, I64)
	m[OpF32ReinterpretI32] = sig1(I32, F32)
	m[OpF64ReinterpretI64] = sig1(I64, F64)
	return m
}

func (v *validator) stepNumeric(in *Instr) error {
	sig, ok := numericSigs[in.Op]
	if !ok {
		return fmt.Errorf("unhandled opcode")
	}
	for i := len(sig.in) - 1; i >= 0; i-- {
		if err := v.pop(sig.in[i]); err != nil {
			return err
		}
	}
	v.push(sig.out)
	return nil
}
