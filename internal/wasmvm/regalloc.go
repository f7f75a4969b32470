package wasmvm

import "wasmbench/internal/wasm"

// This file implements the register-form IR behind the optimizing tier —
// the input the AOT translator (aot.go) compiles into superblocks. The
// idea mirrors what LiftOff-vs-TurboFan means for dispatch cost in the
// engines the paper studies (§4.4.2): the basic tier interprets stack
// bytecode, paying a push/pop on almost every instruction, while the
// optimizing tier runs code whose operands live in fixed slots.
//
// Wasm validation guarantees the operand-stack height at every pc is a
// static property, so each stack slot can be assigned a fixed virtual
// register at translation time: slot at height h lives in frame register
// nLocals+h, where the frame is a flat slice holding locals followed by
// the register file. lowerFunc records the entry height of every
// instruction in compiledFunc.heights; translateReg turns each lowered
// instruction into an rop that names its operand registers directly.
//
// The translation is deliberately 1:1 — regCode[pc] executes exactly
// code[pc] — so branch targets survive unchanged and the stack engine can
// switch to the superblocks built from it at any label (OSR) without a pc
// mapping. On top of that, pairRegs overlays pair forms: the first
// instruction of a common adjacent pair (operand shuffles, immediates
// feeding arithmetic, address computation, loop exits) becomes one rop
// executing both, while the partner slot keeps its standalone form, so a
// branch landing on it still executes exactly that instruction.
//
// Determinism contract: executing regCode must charge the same cycles (in
// the same float-addition order), the same steps, the same cost-class
// tallies, and emit the same trace events as executing code under the
// optimizing cost table. A pair charges both of its components, in order,
// against the same table. Costs are precomputed from OptCost only because
// the register body runs exclusively in the optimizing tier.

// rkind discriminates register-form instructions. A handful of hot
// opcode specializations (rAddI32, rGeS32BrIf, ...) inline their operation
// into the dispatch arm; everything else funnels through the shared
// numUnary/numBinary/memLoad/memStore evaluators.
type rkind uint8

const (
	rDead rkind = iota // statically unreachable slot (never executed)
	rNop               // block/loop/end/nop/drop: charge only
	rMove              // local.get/set/tee
	rConst
	rGlobalGet
	rGlobalSet
	rSelect
	rUn      // unary numeric/conversion via numUnary
	rBin     // binary numeric via numBinary
	rExtI64S // i64.extend_i32_s
	rAddI32
	rSubI32
	rMulI32
	rAddI64
	rAddF64
	rMulF64
	rShlI32
	rAndI32
	rXorI32
	rLoad
	rStore
	rMemSize
	rMemGrow
	rCall
	rIf   // branch when condition register is zero
	rJump // else/br/return: unconditional
	rBrIf
	rBrTable
	rUnreachable
	rMove2      // pair local.get+local.get
	rConstBin   // pair const+binop via numBinary
	rConstAdd32 // pair i32.const+i32.add
	rGetLoad    // pair local.get+load
	rCmpBrIf    // pair cmp+br_if via numUnary/numBinary
	rGeS32BrIf  // pair i32.ge_s+br_if
	rLtS32BrIf  // pair i32.lt_s+br_if
)

// rbranch is a resolved branch target in register form. Wasm labels carry
// at most one value here (multi-value is bailed at translation), so the
// stack engine's copy-and-truncate becomes a single register move from src
// to dst when keep is 1.
type rbranch struct {
	pc   int32
	src  int32 // register holding the carried value at the branch site
	dst  int32 // register the target expects it in
	keep uint8
}

// rop is one register-form instruction. Registers index the frame slice
// (locals at 0..nLocals-1, operand slots above). cost/cost2 are the
// OptCost charges of a pair's components (op2/class2 name the second),
// precomputed so the dispatchers avoid a table lookup.
type rop struct {
	kind    rkind
	op      wasm.Opcode
	op2     wasm.Opcode
	class   CostClass
	class2  CostClass
	r1      int32 // first operand register (or local index / param count)
	r2      int32 // second operand register (-1 when absent)
	rd      int32 // destination register (or call argument base)
	a       uint32
	b       uint32 // memory offset
	val     int64  // constant, pre-packed to the raw representation
	cost    float64
	cost2   float64
	jump    rbranch
	targets []rbranch // br_table (default last)
}

// translateReg lowers a function's stack bytecode to register form using
// the static entry heights recorded by lowerFunc, then overlays pair forms
// (pairRegs). Returns nil if any construct falls outside the register
// model (conservative bail).
func translateReg(m *wasm.Module, cf *compiledFunc, opt *CostTable) []rop {
	out := translateSlots(m, cf, opt)
	if out != nil {
		pairRegs(out, cf.code)
	}
	return out
}

// translateSlots is the 1:1 half of translateReg: every slot gets its
// standalone register form, which is also what a branch landing on a
// pair's partner slot executes.
func translateSlots(m *wasm.Module, cf *compiledFunc, opt *CostTable) []rop {
	code := cf.code
	heights := cf.heights
	nLocals := int32(cf.nLocals)

	// Frame capacity: every runtime stack depth is some instruction's entry
	// height, so the peak is the max recorded height plus one push, with a
	// spare slot.
	maxH := int32(0)
	for _, h := range heights {
		if h > maxH {
			maxH = h
		}
	}
	cf.maxStack = maxH + 2

	reg := func(h int32) int32 { return nLocals + h }
	// jmp converts a branch target taken at operand height hb.
	jmp := func(t branchTarget, hb int32) (rbranch, bool) {
		if t.keep > 1 {
			return rbranch{}, false
		}
		rb := rbranch{pc: t.pc, keep: t.keep}
		if t.keep == 1 {
			rb.src = reg(hb - 1)
			rb.dst = reg(t.unwind)
		}
		return rb, true
	}

	out := make([]rop, len(code))
	for pc := range code {
		in := &code[pc]
		h := heights[pc]
		r := &out[pc]
		r.op = in.op
		r.class = in.class
		r.cost = opt[in.class]
		r.a, r.b = in.a, in.b
		r.val = in.val
		r.r2 = -1
		if h < 0 {
			r.kind = rDead
			continue
		}

		switch in.op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpEnd, wasm.OpNop, wasm.OpDrop:
			r.kind = rNop

		case wasm.OpUnreachable:
			r.kind = rUnreachable

		case wasm.OpIf:
			r.kind = rIf
			r.r1 = reg(h - 1)
			j, ok := jmp(in.jump, h-1)
			if !ok {
				return nil
			}
			r.jump = j

		case wasm.OpElse:
			r.kind = rJump
			j, ok := jmp(in.jump, h)
			if !ok {
				return nil
			}
			r.jump = j

		case wasm.OpBr:
			r.kind = rJump
			j, ok := jmp(in.jump, h)
			if !ok {
				return nil
			}
			r.jump = j

		case wasm.OpBrIf:
			r.kind = rBrIf
			r.r1 = reg(h - 1)
			j, ok := jmp(in.jump, h-1)
			if !ok {
				return nil
			}
			r.jump = j

		case wasm.OpBrTable:
			r.kind = rBrTable
			r.r1 = reg(h - 1)
			r.targets = make([]rbranch, len(in.targets))
			for i, t := range in.targets {
				j, ok := jmp(t, h-1)
				if !ok {
					return nil
				}
				r.targets[i] = j
			}

		case wasm.OpReturn:
			r.kind = rJump
			j, ok := jmp(in.jump, h)
			if !ok {
				return nil
			}
			r.jump = j

		case wasm.OpCall:
			ct, err := m.FuncTypeOf(in.a)
			if err != nil {
				return nil
			}
			np := int32(len(ct.Params))
			r.kind = rCall
			r.r1 = np
			r.rd = reg(h - np) // arguments base; results land at the same base

		case wasm.OpSelect:
			r.kind = rSelect
			r.rd = reg(h - 3) // v1, v2, cond at rd, rd+1, rd+2

		case wasm.OpLocalGet:
			r.kind = rMove
			r.r1 = int32(in.a)
			r.rd = reg(h)
		case wasm.OpLocalSet:
			r.kind = rMove
			r.r1 = reg(h - 1)
			r.rd = int32(in.a)
		case wasm.OpLocalTee:
			r.kind = rMove
			r.r1 = reg(h - 1)
			r.rd = int32(in.a)
		case wasm.OpGlobalGet:
			r.kind = rGlobalGet
			r.rd = reg(h)
		case wasm.OpGlobalSet:
			r.kind = rGlobalSet
			r.r1 = reg(h - 1)

		case wasm.OpI32Const, wasm.OpF32Const:
			r.kind = rConst
			r.val = int64(uint64(uint32(in.val)))
			r.rd = reg(h)
		case wasm.OpI64Const, wasm.OpF64Const:
			r.kind = rConst
			r.rd = reg(h)

		case wasm.OpMemorySize:
			r.kind = rMemSize
			r.rd = reg(h)
		case wasm.OpMemoryGrow:
			r.kind = rMemGrow
			r.r1 = reg(h - 1)
			r.rd = reg(h - 1)

		default:
			switch {
			case isMemOp(in.op):
				if in.op >= wasm.OpI32Store {
					r.kind = rStore
					r.r1 = reg(h - 2) // address
					r.r2 = reg(h - 1) // value
				} else {
					r.kind = rLoad
					r.r1 = reg(h - 1)
					r.rd = reg(h - 1)
				}
			case isUnaryNumeric(in.op):
				if in.op == wasm.OpI64ExtendI32S {
					r.kind = rExtI64S
				} else {
					r.kind = rUn
				}
				r.r1 = reg(h - 1)
				r.rd = reg(h - 1)
			default: // binary numeric
				r.r1 = reg(h - 2)
				r.r2 = reg(h - 1)
				r.rd = reg(h - 2)
				switch in.op {
				case wasm.OpI32Add:
					r.kind = rAddI32
				case wasm.OpI32Sub:
					r.kind = rSubI32
				case wasm.OpI32Mul:
					r.kind = rMulI32
				case wasm.OpI64Add:
					r.kind = rAddI64
				case wasm.OpF64Add:
					r.kind = rAddF64
				case wasm.OpF64Mul:
					r.kind = rMulF64
				case wasm.OpI32Shl:
					r.kind = rShlI32
				case wasm.OpI32And:
					r.kind = rAndI32
				case wasm.OpI32Xor:
					r.kind = rXorI32
				default:
					r.kind = rBin
				}
			}
		}
	}
	return out
}

// pairRegs overlays pair forms on a 1:1 register body, greedily fusing
// non-overlapping adjacent pairs left to right. Each pair rop takes its
// operands from the two standalone forms it replaces and charges both
// components; the partner slot is left untouched, so sequential flow skips
// it (pc advances by 2) while a branch landing on it executes it alone.
func pairRegs(out []rop, code []lop) {
	for pc := 0; pc+1 < len(code); pc++ {
		op, next := code[pc].op, code[pc+1].op
		r, p := &out[pc], &out[pc+1]
		if r.kind == rDead {
			continue // a dead pair's partner is dead too
		}
		switch {
		case isCmpLike(op) && next == wasm.OpBrIf:
			// The cmp's operand registers, the br_if's branch: the
			// partner applies it at the height the pair leaves behind.
			r.op2 = op
			r.jump = p.jump
			switch op {
			case wasm.OpI32GeS:
				r.kind = rGeS32BrIf
			case wasm.OpI32LtS:
				r.kind = rLtS32BrIf
			default:
				r.kind = rCmpBrIf
			}
		case op == wasm.OpLocalGet && next == wasm.OpLocalGet:
			r.kind = rMove2
			r.r2 = p.r1 // second local; it lands in r.rd+1
		case (op == wasm.OpI32Const || op == wasm.OpF32Const ||
			op == wasm.OpI64Const || op == wasm.OpF64Const) && isBinaryNumeric(next):
			// The constant (already packed) becomes the binop's right
			// operand, applied to the binop's left operand register.
			r.op2 = next
			r.r1, r.rd = p.r1, p.rd
			if next == wasm.OpI32Add {
				r.kind = rConstAdd32
			} else {
				r.kind = rConstBin
			}
		case op == wasm.OpLocalGet && isLoadOp(next):
			r.kind = rGetLoad
			r.op2 = next
			r.b = p.b
		default:
			continue
		}
		r.class2 = p.class
		r.cost2 = p.cost
		pc++ // greedy: the partner stays intact but is skipped by flow
	}
}

// isBinaryNumeric reports whether op is a pure two-operand numeric opcode
// (the numBinary family): comparisons through f64.copysign, minus the
// unary instructions interleaved in that range.
func isBinaryNumeric(op wasm.Opcode) bool {
	return op >= wasm.OpI32Eq && op <= wasm.OpF64Copysign && !isUnaryNumeric(op)
}

// isCmpLike reports whether op leaves a boolean on the stack and cannot
// trap — the class of ops that pair with a following br_if.
func isCmpLike(op wasm.Opcode) bool {
	return op == wasm.OpI32Eqz || op == wasm.OpI64Eqz ||
		(op >= wasm.OpI32Eq && op <= wasm.OpF64Ge)
}

func isLoadOp(op wasm.Opcode) bool {
	return op >= wasm.OpI32Load && op <= wasm.OpI64Load32U
}
