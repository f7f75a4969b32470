package jsvm

import "math"

// The numeric closure tier. Compiled asm.js-style code (Cheerp's `x|0`,
// `+x`, `Math.imul`, `HEAPF64[i>>3]`) fixes the type of most expressions
// statically, so the compiler evaluates them as unboxed float64s: c.num
// compiles an expression in a ToNumber context and c.truth one in a
// ToBoolean context. Both charge exactly the steps, classes and Table 12
// operator counts that the boxed Value closure for the same expression
// charges, in the same order, and count the same AST nodes (tier-up charges
// CompilePerNode per node), so the speedup is invisible to the cost model.

// numFn evaluates an expression and returns ToNumber of its value.
type numFn func(vm *VM, e *env) (float64, error)

// truthFn evaluates an expression and returns ToBoolean of its value.
type truthFn func(vm *VM, e *env) (bool, error)

// sty is an expression's static type, as far as the compiler can prove it.
type sty uint8

const (
	// tAny may be any value.
	tAny sty = iota
	// tPrim is never a string or an object: a number, a boolean,
	// undefined or null. ToNumber of it loses nothing that `+`, `<` or
	// ToBoolean look at.
	tPrim
	// tNum is always a number.
	tNum
)

// ty returns the static type of e in the current scope.
func (c *jsCompiler) ty(e jsExpr) sty {
	switch x := e.(type) {
	case *eNum:
		return tNum
	case *eBool, *eNull, *eUndefined:
		return tPrim
	case *eIdent:
		if c.isNumSlot(x.name) {
			return tPrim
		}
	case *eUnary:
		switch x.op {
		case "-", "+", "~", "++", "--":
			return tNum
		case "!":
			return tPrim
		}
	case *eBinary:
		switch x.op {
		case "+":
			if c.ty(x.x) >= tPrim && c.ty(x.y) >= tPrim {
				return tNum
			}
			return tAny
		case "==", "!=", "===", "!==", "<", ">", "<=", ">=":
			return tPrim
		}
		return tNum
	case *eLogical:
		return min(c.ty(x.x), c.ty(x.y))
	case *eCond:
		return min(c.ty(x.t), c.ty(x.f))
	case *eAssign:
		switch x.op {
		case "=":
			return c.ty(x.rhs)
		case "+=":
			if c.ty(x.lhs) >= tPrim && c.ty(x.rhs) >= tPrim {
				return tNum
			}
			return tAny
		}
		return tNum
	case *eSeq:
		return c.ty(x.y)
	case *eMember:
		if id, ok := x.obj.(*eIdent); ok && x.computed != nil && c.typedArrayGlobal(id.name) {
			return tPrim
		}
	case *eCall:
		if m, ok := x.callee.(*eMember); ok && c.facts.mathPure && m.computed == nil {
			if id, ok := m.obj.(*eIdent); ok && id.name == "Math" && intrinsicArity(m.name) == len(x.args) {
				return tNum
			}
		}
	}
	return tAny
}

// typedArrayGlobal reports whether name resolves here to a program-level
// variable that only ever holds a typed array (see typedArrayGlobals).
func (c *jsCompiler) typedArrayGlobal(name string) bool {
	if !c.facts.taGlobals[name] {
		return false
	}
	sc := c.scope
	for ; sc.parent != nil; sc = sc.parent {
		if _, ok := sc.cf.slotOf[name]; ok {
			return false
		}
	}
	_, ok := sc.cf.slotOf[name]
	return ok
}

// typedArrayCtors are the host typed-array constructors.
var typedArrayCtors = map[string]bool{
	"Int8Array": true, "Uint8Array": true, "Int16Array": true, "Uint16Array": true,
	"Int32Array": true, "Uint32Array": true, "Float32Array": true, "Float64Array": true,
}

// programFacts are whole-program facts the numeric tier types with.
type programFacts struct {
	// taGlobals are the names that, at program level, only ever hold
	// typed arrays: every write to the name anywhere in the program is
	// `new C(...)` with C a host typed-array constructor that nothing
	// rebinds, and the host binds no value to the name. Element reads
	// through such a variable are numbers, undefined out of range, or
	// throw (before the first write the variable is undefined), never
	// strings or objects: this is what types Cheerp's HEAPF64[i>>3].
	taGlobals map[string]bool
	// mathPure holds when nothing can replace a Math intrinsic: the
	// program never rebinds Math, writes no property named like an
	// intrinsic, and stores through computed members only into typed-array
	// globals. Math.imul(a, b) and friends are then always numbers.
	mathPure bool
	// local are the names some function declares (parameters, vars,
	// function declarations, catch parameters).
	local map[string]bool
	// funcs are the facts of the program's top level and of every
	// function, in source order.
	funcs []*funcFacts
	// hostRefs are the host bindings (host functions and SetGlobal names)
	// the program mentions anywhere; Run binds only those.
	hostRefs map[string]bool
}

// nameWrite is one write to a variable by name.
type nameWrite struct {
	name, op string
	x        jsExpr
}

// inferGlobalSlots marks the program-level variables that never hold a
// string or an object (Cheerp's g_ globals), as inferNumSlots does for a
// function's: declared by a top-level var, not declared by any function
// (so every use of the name is this variable), not bound by the host, and
// every write to the name anywhere a primitive when the program's own
// variables are the only names typed.
func (c *jsCompiler) inferGlobalSlots(pf *programFacts) {
	cf := c.scope.cf
	num := make([]bool, cf.nSlots)
	for name, idx := range cf.slotOf {
		num[idx] = !pf.local[name] && c.vm.hostFuncs[name] == nil
	}
	unmark := func(name string) {
		if idx, ok := cf.slotOf[name]; ok {
			num[idx] = false
		}
	}
	for _, hb := range c.vm.pendingGlobals {
		unmark(hb.name)
	}
	// The top level's function declarations and catch parameters hold no
	// primitive; a function's are local names, already unmarked.
	for _, name := range pf.funcs[0].pinned {
		unmark(name)
	}
	var writes []slotWrite
	for _, f := range pf.funcs {
		for _, w := range f.writes {
			idx, ok := cf.slotOf[w.name]
			switch {
			case !ok:
			case w.op == "=" && pf.taGlobals[w.name]:
				num[idx] = false
			default:
				writes = append(writes, slotWrite{idx, w.op, w.x})
			}
		}
	}
	c.fixSlots(num, writes)
}

// isNumSlot reports whether name resolves to a primitive-only slot.
func (c *jsCompiler) isNumSlot(name string) bool {
	for sc := c.scope; sc != nil; sc = sc.parent {
		if idx, ok := sc.cf.slotOf[name]; ok {
			return idx < len(sc.cf.numSlot) && sc.cf.numSlot[idx]
		}
	}
	return false
}

// slotWrite is one write to a local slot: a var initializer or an
// assignment with operator op.
type slotWrite struct {
	slot int
	op   string
	x    jsExpr
}

// inferNumSlots marks the current function's var slots that never hold a
// string or an object (Cheerp's lN locals): not a parameter, not
// `this` or `arguments`, not a function declaration or catch parameter,
// not named anywhere inside a nested function (which could capture it),
// and every initializer and assignment a primitive. The assignments' types
// depend on the slots' own types, so the marking is the greatest fixed
// point: start from every candidate and drop slots until no write refutes
// one.
func (c *jsCompiler) inferNumSlots(f *funcFacts) {
	cf := c.scope.cf
	num := make([]bool, cf.nSlots)
	for idx := cf.nParams; idx < cf.nSlots; idx++ {
		num[idx] = true
	}
	if cf.thisSlot >= 0 {
		num[cf.thisSlot] = false
	}
	if cf.argsSlot >= 0 {
		num[cf.argsSlot] = false
	}
	for _, name := range f.pinned {
		if idx, ok := cf.slotOf[name]; ok {
			num[idx] = false
		}
	}
	writes := make([]slotWrite, 0, len(f.writes))
	for _, w := range f.writes {
		if idx, ok := cf.slotOf[w.name]; ok {
			writes = append(writes, slotWrite{idx, w.op, w.x})
		}
	}
	c.fixSlots(num, writes)
}

// fixSlots installs num as the current scope's slot marking and drops
// marks until every write to a marked slot is numeric under the marking.
func (c *jsCompiler) fixSlots(num []bool, writes []slotWrite) {
	c.scope.cf.numSlot = num
	for changed := true; changed; {
		changed = false
		for _, w := range writes {
			if num[w.slot] && !c.numericWrite(w) {
				num[w.slot] = false
				changed = true
			}
		}
	}
}

// numericWrite reports whether w stores a primitive (never a string or an
// object), given the current slot marking.
func (c *jsCompiler) numericWrite(w slotWrite) bool {
	switch w.op {
	case "=":
		return c.ty(w.x) >= tPrim
	case "+=":
		return c.ty(w.x) >= tPrim
	}
	return true
}

// num compiles e in a ToNumber context.
func (c *jsCompiler) num(e jsExpr) (numFn, error) {
	c.node()
	return c.numBody(e)
}

// truth compiles e in a ToBoolean context.
func (c *jsCompiler) truth(e jsExpr) (truthFn, error) {
	c.node()
	return c.truthBody(e)
}

// toNum adapts a boxed closure to the numeric tier.
func toNum(f exprFn) numFn {
	return func(vm *VM, e *env) (float64, error) {
		v, err := f(vm, e)
		if v.Kind == KindNumber {
			return v.Num, err
		}
		return v.ToNumber(), err
	}
}

// boxNum adapts a numeric closure to the boxed tier.
func boxNum(f numFn) exprFn {
	return func(vm *VM, e *env) (Value, error) {
		n, err := f(vm, e)
		return Num(n), err
	}
}

// boxTruth adapts a boolean closure to the boxed tier.
func boxTruth(f truthFn) exprFn {
	return func(vm *VM, e *env) (Value, error) {
		b, err := f(vm, e)
		return Bool(b), err
	}
}

// numOp is one arithmetic or bitwise operator of the numeric tier: its cost
// class, its Table 12 group and its ToNumber-level semantics.
type numOp struct {
	cls   JSClass
	group int
	f     func(a, b float64) float64
}

var numOps = map[string]numOp{
	"+": {JAdd, opADD, func(a, b float64) float64 { return a + b }},
	"-": {JArith, opADD, func(a, b float64) float64 { return a - b }},
	"*": {JArith, opMUL, func(a, b float64) float64 { return a * b }},
	"/": {JArith, opDIV, func(a, b float64) float64 { return a / b }},
	"%": {JArith, opREM, math.Mod},
	"&": {JBitop, opAND, func(a, b float64) float64 { return float64(toInt32(a) & toInt32(b)) }},
	"|": {JBitop, opOR, func(a, b float64) float64 { return float64(toInt32(a) | toInt32(b)) }},
	"^": {JBitop, opOR, func(a, b float64) float64 { return float64(toInt32(a) ^ toInt32(b)) }},
	"<<": {JBitop, opSHIFT, func(a, b float64) float64 {
		return float64(toInt32(a) << (uint32(toInt32(b)) & 31))
	}},
	">>": {JBitop, opSHIFT, func(a, b float64) float64 {
		return float64(toInt32(a) >> (uint32(toInt32(b)) & 31))
	}},
	">>>": {JBitop, opSHIFT, func(a, b float64) float64 {
		return float64(toUint32(a) >> (uint32(toInt32(b)) & 31))
	}},
}

// numCmps are the relational operators over numbers.
var numCmps = map[string]func(a, b float64) bool{
	"<":   func(a, b float64) bool { return a < b },
	">":   func(a, b float64) bool { return a > b },
	"<=":  func(a, b float64) bool { return a <= b },
	">=":  func(a, b float64) bool { return a >= b },
	"==":  func(a, b float64) bool { return a == b },
	"===": func(a, b float64) bool { return a == b },
	"!=":  func(a, b float64) bool { return a != b },
	"!==": func(a, b float64) bool { return a != b },
}

// isCoercion reports the asm.js coercion idioms `x|0` and `x>>>0`: type
// annotations, not arithmetic. Optimizing engines erase them entirely and
// even the interpreter treats them as cheap tag checks (one JConst step,
// no operator count, and the literal 0 is never compiled).
func isCoercion(x *eBinary) bool {
	z, ok := x.y.(*eNum)
	return ok && z.v == 0 && (x.op == "|" || x.op == ">>>")
}

// numCompare reports whether a comparison can be decided on ToNumber of
// its operands: relational operators unless both sides may be strings,
// loose equality when one side is surely a number, strict equality when
// both are.
func (c *jsCompiler) numCompare(x *eBinary) bool {
	l, r := c.ty(x.x), c.ty(x.y)
	switch x.op {
	case "<", ">", "<=", ">=":
		return l >= tPrim || r >= tPrim
	case "==", "!=":
		return l == tNum || r == tNum
	case "===", "!==":
		return l == tNum && r == tNum
	}
	return false
}

// numNative reports whether the numeric tier evaluates x itself (the boxed
// tier then boxes its result instead of compiling x again).
func (c *jsCompiler) numNative(x *eBinary) bool {
	if _, ok := numCmps[x.op]; ok {
		return c.numCompare(x)
	}
	return x.op != "+" || isCoercion(x) || c.ty(x.x) >= tPrim && c.ty(x.y) >= tPrim
}

func (c *jsCompiler) numBody(e jsExpr) (numFn, error) {
	switch x := e.(type) {
	case *eNum:
		v := x.v
		return func(vm *VM, e *env) (float64, error) {
			return v, vm.step(e, JConst)
		}, nil
	case *eIdent:
		d, slot := c.scope.resolve(x.name)
		if d == 0 {
			return func(vm *VM, e *env) (float64, error) {
				err := vm.step(e, JVarRead)
				if v := &e.slots[slot]; v.Kind == KindNumber {
					return v.Num, err
				}
				return e.slots[slot].ToNumber(), err
			}, nil
		}
		return func(vm *VM, e *env) (float64, error) {
			err := vm.step(e, JVarRead)
			return envAt(e, d).slots[slot].ToNumber(), err
		}, nil
	case *eUnary:
		return c.numUnary(x)
	case *eBinary:
		if x.op == "+" && !c.numNative(x) {
			core, err := c.dynAdd(x)
			return numMixed(core), err
		}
		if !c.numNative(x) {
			break
		}
		if _, ok := numCmps[x.op]; ok {
			t, err := c.truthBody(x)
			if err != nil {
				return nil, err
			}
			return func(vm *VM, e *env) (float64, error) {
				b, err := t(vm, e)
				if b {
					return 1, err
				}
				return 0, err
			}, nil
		}
		return c.numBinary(x)
	case *eAssign:
		if core, ok, err := c.assignCore(x); ok || err != nil {
			return numMixed(core), err
		}
	case *eMember:
		if x.computed != nil {
			return c.numElem(x)
		}
	case *eCall:
		core, ok, err := c.intrinsic(x)
		if err != nil {
			return nil, err
		}
		if ok {
			return numMixed(core), nil
		}
	case *eCond:
		cc, err := c.truth(x.c)
		if err != nil {
			return nil, err
		}
		tt, err := c.num(x.t)
		if err != nil {
			return nil, err
		}
		ff, err := c.num(x.f)
		if err != nil {
			return nil, err
		}
		return func(vm *VM, e *env) (float64, error) {
			if err := vm.step(e, JBranch); err != nil {
				return 0, err
			}
			b, err := cc(vm, e)
			if err != nil {
				return 0, err
			}
			if b {
				return tt(vm, e)
			}
			return ff(vm, e)
		}, nil
	}
	f, err := c.exprBody(e)
	if err != nil {
		return nil, err
	}
	return toNum(f), nil
}

func (c *jsCompiler) numUnary(x *eUnary) (numFn, error) {
	switch x.op {
	case "++", "--":
		return c.incDec(x)
	case "!":
		t, err := c.truth(x.x)
		if err != nil {
			return nil, err
		}
		return func(vm *VM, e *env) (float64, error) {
			b, err := t(vm, e)
			if err != nil {
				return 0, err
			}
			if b {
				return 0, vm.step(e, JCmp)
			}
			return 1, vm.step(e, JCmp)
		}, nil
	case "typeof":
		f, err := c.exprBody(x)
		if err != nil {
			return nil, err
		}
		return toNum(f), nil
	}
	xf, err := c.num(x.x)
	if err != nil {
		return nil, err
	}
	switch x.op {
	case "-":
		return func(vm *VM, e *env) (float64, error) {
			n, err := xf(vm, e)
			if err != nil {
				return 0, err
			}
			return -n, vm.step(e, JArith)
		}, nil
	case "+":
		return func(vm *VM, e *env) (float64, error) {
			n, err := xf(vm, e)
			if err != nil {
				return 0, err
			}
			return n, vm.step(e, JArith)
		}, nil
	}
	return func(vm *VM, e *env) (float64, error) { // "~"
		n, err := xf(vm, e)
		if err != nil {
			return 0, err
		}
		return float64(^toInt32(n)), vm.step(e, JBitop)
	}, nil
}

// numBinary compiles an arithmetic or bitwise operator (or `+` over
// non-string operands, or a coercion idiom) over numeric operands.
func (c *jsCompiler) numBinary(x *eBinary) (numFn, error) {
	if in, ok := x.x.(*eBinary); ok && isCoercion(x) && !isCoercion(in) && numOps[in.op].f != nil && c.numNative(in) {
		return c.coercedBinary(x, in)
	}
	if isCoercion(x) {
		inner, err := c.num(x.x)
		if err != nil {
			return nil, err
		}
		if x.op == ">>>" {
			return func(vm *VM, e *env) (float64, error) {
				n, err := inner(vm, e)
				if err != nil {
					return 0, err
				}
				return float64(toUint32(n)), vm.step(e, JConst)
			}, nil
		}
		return func(vm *VM, e *env) (float64, error) {
			n, err := inner(vm, e)
			if err != nil {
				return 0, err
			}
			return float64(toInt32(n)), vm.step(e, JConst)
		}, nil
	}
	l, err := c.numOperand(x.x)
	if err != nil {
		return nil, err
	}
	r, err := c.numOperand(x.y)
	if err != nil {
		return nil, err
	}
	op := numOps[x.op]
	cls, group := op.cls, op.group
	// The operators Cheerp's inner loops are made of get their own
	// closures; the rest call through the table.
	switch x.op {
	case "+":
		return func(vm *VM, e *env) (float64, error) {
			a, err := l.num(vm, e)
			if err != nil {
				return 0, err
			}
			b, err := r.num(vm, e)
			if err != nil {
				return 0, err
			}
			if err := vm.step(e, JAdd); err != nil {
				return 0, err
			}
			vm.arith[opADD]++
			return a + b, nil
		}, nil
	case "-":
		return func(vm *VM, e *env) (float64, error) {
			a, err := l.num(vm, e)
			if err != nil {
				return 0, err
			}
			b, err := r.num(vm, e)
			if err != nil {
				return 0, err
			}
			if err := vm.step(e, JArith); err != nil {
				return 0, err
			}
			vm.arith[opADD]++
			return a - b, nil
		}, nil
	case "*":
		return func(vm *VM, e *env) (float64, error) {
			a, err := l.num(vm, e)
			if err != nil {
				return 0, err
			}
			b, err := r.num(vm, e)
			if err != nil {
				return 0, err
			}
			if err := vm.step(e, JArith); err != nil {
				return 0, err
			}
			vm.arith[opMUL]++
			return a * b, nil
		}, nil
	case ">>":
		return func(vm *VM, e *env) (float64, error) {
			a, err := l.num(vm, e)
			if err != nil {
				return 0, err
			}
			b, err := r.num(vm, e)
			if err != nil {
				return 0, err
			}
			if err := vm.step(e, JBitop); err != nil {
				return 0, err
			}
			vm.arith[opSHIFT]++
			return float64(toInt32(a) >> (uint32(toInt32(b)) & 31)), nil
		}, nil
	}
	f := op.f
	return func(vm *VM, e *env) (float64, error) {
		a, err := l.num(vm, e)
		if err != nil {
			return 0, err
		}
		b, err := r.num(vm, e)
		if err != nil {
			return 0, err
		}
		if err := vm.step(e, cls); err != nil {
			return 0, err
		}
		vm.arith[group]++
		return f(a, b), nil
	}, nil
}

// coercedBinary compiles (l op r)|0 or (l op r)>>>0 as one closure: the
// operator's charge and count, then the coercion's.
func (c *jsCompiler) coercedBinary(x, in *eBinary) (numFn, error) {
	c.node() // the operator node; the coercion's was counted by the caller
	l, err := c.numOperand(in.x)
	if err != nil {
		return nil, err
	}
	r, err := c.numOperand(in.y)
	if err != nil {
		return nil, err
	}
	op := numOps[in.op]
	cls, group, f := op.cls, op.group, op.f
	unsigned := x.op == ">>>"
	if in.op == "+" && !unsigned {
		return func(vm *VM, e *env) (float64, error) {
			a, err := l.num(vm, e)
			if err != nil {
				return 0, err
			}
			b, err := r.num(vm, e)
			if err != nil {
				return 0, err
			}
			if err := vm.step(e, JAdd); err != nil {
				return 0, err
			}
			vm.arith[opADD]++
			return float64(toInt32(a + b)), vm.step(e, JConst)
		}, nil
	}
	return func(vm *VM, e *env) (float64, error) {
		a, err := l.num(vm, e)
		if err != nil {
			return 0, err
		}
		b, err := r.num(vm, e)
		if err != nil {
			return 0, err
		}
		if err := vm.step(e, cls); err != nil {
			return 0, err
		}
		vm.arith[group]++
		n := f(a, b)
		if unsigned {
			return float64(toUint32(n)), vm.step(e, JConst)
		}
		return float64(toInt32(n)), vm.step(e, JConst)
	}, nil
}

func (c *jsCompiler) truthBody(e jsExpr) (truthFn, error) {
	switch x := e.(type) {
	case *eUnary:
		if x.op == "!" {
			if in, ok := x.x.(*eBinary); ok && isCoercion(in) {
				if cmp, ok := in.x.(*eBinary); ok && numCmps[cmp.op] != nil && c.numCompare(cmp) {
					return c.notCmp(cmp)
				}
			}
			t, err := c.truth(x.x)
			if err != nil {
				return nil, err
			}
			return func(vm *VM, e *env) (bool, error) {
				b, err := t(vm, e)
				if err != nil {
					return false, err
				}
				return !b, vm.step(e, JCmp)
			}, nil
		}
	case *eBinary:
		cmp, isCmp := numCmps[x.op]
		if isCmp && c.numCompare(x) {
			l, err := c.numOperand(x.x)
			if err != nil {
				return nil, err
			}
			r, err := c.numOperand(x.y)
			if err != nil {
				return nil, err
			}
			return func(vm *VM, e *env) (bool, error) {
				a, err := l.num(vm, e)
				if err != nil {
					return false, err
				}
				b, err := r.num(vm, e)
				if err != nil {
					return false, err
				}
				return cmp(a, b), vm.step(e, JCmp)
			}, nil
		}
		if isCoercion(x) && c.isBoolean(x.x) {
			// (cond)|0 is 0 or 1, so its truth is cond's.
			t, err := c.truth(x.x)
			if err != nil {
				return nil, err
			}
			return func(vm *VM, e *env) (bool, error) {
				b, err := t(vm, e)
				if err != nil {
					return false, err
				}
				return b, vm.step(e, JConst)
			}, nil
		}
	}
	if c.ty(e) >= tPrim {
		f, err := c.numBody(e)
		if err != nil {
			return nil, err
		}
		return func(vm *VM, e *env) (bool, error) {
			n, err := f(vm, e)
			return n != 0 && n == n, err
		}, nil
	}
	f, err := c.exprBody(e)
	if err != nil {
		return nil, err
	}
	return func(vm *VM, e *env) (bool, error) {
		v, err := f(vm, e)
		return v.IsTruthy(), err
	}, nil
}

// notCmp compiles !((a < b)|0), the test Cheerp's loops exit on, with any
// comparison the numeric tier decides, as one closure: the comparison, the
// coercion and the negation, each with its own charge.
func (c *jsCompiler) notCmp(cmp *eBinary) (truthFn, error) {
	c.node() // the coercion; the negation's was counted by the caller
	c.node() // the comparison
	l, err := c.numOperand(cmp.x)
	if err != nil {
		return nil, err
	}
	r, err := c.numOperand(cmp.y)
	if err != nil {
		return nil, err
	}
	f := numCmps[cmp.op]
	return func(vm *VM, e *env) (bool, error) {
		a, err := l.num(vm, e)
		if err != nil {
			return false, err
		}
		b, err := r.num(vm, e)
		if err != nil {
			return false, err
		}
		if err := vm.step(e, JCmp); err != nil {
			return false, err
		}
		if err := vm.step(e, JConst); err != nil {
			return false, err
		}
		return !f(a, b), vm.step(e, JCmp)
	}, nil
}

// isBoolean reports whether e always evaluates to a boolean.
func (c *jsCompiler) isBoolean(e jsExpr) bool {
	switch x := e.(type) {
	case *eBool:
		return true
	case *eUnary:
		return x.op == "!"
	case *eBinary:
		_, ok := numCmps[x.op]
		return ok
	}
	return false
}

// numArg is an operand whose consumer only needs ToNumber of it on the
// fast path but the value itself on the generic one. Variables and
// literals are read in place, without a closure call; a surely-numeric
// operand compiles to the numeric tier (its value is Num of the result),
// a guarded intrinsic or string-capable `+` to a mixed core, anything else
// to the boxed tier.
type numArg struct {
	kind argKind
	// conv applies a coercion idiom to a variable or literal read in
	// place: `x|0` (convInt32) or `x>>>0` (convUint32).
	conv  uint8
	depth int
	slot  int
	c     float64
	n     numFn
	m     mixedCore
	v     exprFn
}

const (
	convInt32 = 1 + iota
	convUint32
)

type argKind uint8

const (
	argVar argKind = iota
	argConst
	argNum
	argMixed
	argBoxed
)

func (c *jsCompiler) numArg(e jsExpr) (numArg, error) {
	switch e.(type) {
	case *eNum, *eIdent:
		return c.numOperand(e)
	}
	if c.ty(e) == tNum {
		return c.numOperand(e)
	}
	switch x := e.(type) {
	case *eCall:
		c.node()
		m, ok, err := c.intrinsic(x)
		if ok || err != nil {
			return numArg{kind: argMixed, m: m}, err
		}
		f, err := c.exprBody(e)
		return numArg{kind: argBoxed, v: f}, err
	case *eBinary:
		if x.op == "+" && !c.numNative(x) {
			c.node()
			m, err := c.dynAdd(x)
			return numArg{kind: argMixed, m: m}, err
		}
	}
	f, err := c.expr(e)
	return numArg{kind: argBoxed, v: f}, err
}

// eval returns ToNumber of the operand and, unless it compiled to the
// numeric tier, its value.
func (a *numArg) eval(vm *VM, e *env) (float64, Value, error) {
	if a.conv != 0 {
		n, err := a.num(vm, e)
		return n, Value{}, err
	}
	switch a.kind {
	case argVar:
		v := envAt(e, a.depth).slots[a.slot]
		err := vm.step(e, JVarRead)
		if v.Kind == KindNumber {
			return v.Num, v, err
		}
		return v.ToNumber(), v, err
	case argConst:
		return a.c, Num(a.c), vm.step(e, JConst)
	case argNum:
		n, err := a.n(vm, e)
		return n, Value{}, err
	case argMixed:
		n, v, fast, err := a.m(vm, e)
		if fast {
			return n, Num(n), err
		}
		return v.ToNumber(), v, err
	}
	v, err := a.v(vm, e)
	if v.Kind == KindNumber {
		return v.Num, v, err
	}
	return v.ToNumber(), v, err
}

// numOperand compiles an operand whose consumer only needs ToNumber of
// it: variables and literals, bare or under a coercion idiom, are read in
// place; anything else compiles to the numeric tier.
func (c *jsCompiler) numOperand(e jsExpr) (numArg, error) {
	var conv uint8
	if b, ok := e.(*eBinary); ok && isCoercion(b) {
		switch b.x.(type) {
		case *eNum, *eIdent:
			c.node()
			conv, e = convInt32, b.x
			if b.op == ">>>" {
				conv = convUint32
			}
		}
	}
	switch x := e.(type) {
	case *eNum:
		c.node()
		return numArg{kind: argConst, conv: conv, c: x.v}, nil
	case *eIdent:
		c.node()
		d, slot := c.scope.resolve(x.name)
		return numArg{kind: argVar, conv: conv, depth: d, slot: slot}, nil
	}
	f, err := c.num(e)
	return numArg{kind: argNum, n: f}, err
}

// num returns ToNumber of the operand.
func (a *numArg) num(vm *VM, e *env) (float64, error) {
	var n float64
	switch a.kind {
	case argVar:
		if err := vm.step(e, JVarRead); err != nil {
			return 0, err
		}
		if v := &envAt(e, a.depth).slots[a.slot]; v.Kind == KindNumber {
			n = v.Num
		} else {
			n = v.ToNumber()
		}
	case argConst:
		if err := vm.step(e, JConst); err != nil {
			return 0, err
		}
		n = a.c
	case argNum:
		return a.n(vm, e)
	case argMixed:
		n, v, fast, err := a.m(vm, e)
		if !fast {
			n = v.ToNumber()
		}
		return n, err
	default:
		v, err := a.v(vm, e)
		return v.ToNumber(), err
	}
	switch a.conv {
	case convInt32:
		return float64(toInt32(n)), vm.step(e, JConst)
	case convUint32:
		return float64(toUint32(n)), vm.step(e, JConst)
	}
	return n, nil
}

// valArg compiles an operand whose consumer needs its value: a variable
// is read in place, anything else compiles to the boxed tier.
func (c *jsCompiler) valArg(e jsExpr) (numArg, error) {
	if x, ok := e.(*eIdent); ok {
		c.node()
		d, slot := c.scope.resolve(x.name)
		return numArg{kind: argVar, depth: d, slot: slot}, nil
	}
	f, err := c.expr(e)
	return numArg{kind: argBoxed, v: f}, err
}

// get returns the value of an operand compiled by valArg.
func (a *numArg) get(vm *VM, e *env) (Value, error) {
	if a.kind == argVar {
		return envAt(e, a.depth).slots[a.slot], vm.step(e, JVarRead)
	}
	return a.v(vm, e)
}

// value rebuilds the operand's value from what eval returned.
func (a *numArg) value(n float64, v Value) Value {
	if a.unboxed() {
		return Num(n)
	}
	return v
}

// unboxed reports whether eval returns only the number: the operand is
// surely numeric, and its value is Num of that number.
func (a *numArg) unboxed() bool { return a.kind == argNum || a.conv != 0 }

// surelyNum reports whether the operand's value is always Num of what num
// returns: it is unboxed or a literal.
func (a *numArg) surelyNum() bool { return a.unboxed() || a.kind == argConst }

// val returns the operand's value, with the charges of the boxed closure
// for the same expression.
func (a *numArg) val(vm *VM, e *env) (Value, error) {
	switch {
	case a.surelyNum():
		n, err := a.num(vm, e)
		return Num(n), err
	case a.kind == argVar:
		return envAt(e, a.depth).slots[a.slot], vm.step(e, JVarRead)
	case a.kind == argMixed:
		n, v, fast, err := a.m(vm, e)
		if fast {
			return Num(n), err
		}
		return v, err
	}
	return a.v(vm, e)
}

// argList compiles call arguments. numArg counts the nodes and charges the
// steps c.expr does for any expression, so a numeric argument is pushed as
// Num of its numeric closure, without the boxNum adapter.
func (c *jsCompiler) argList(list []jsExpr) ([]numArg, error) {
	out := make([]numArg, len(list))
	for i, e := range list {
		var err error
		if out[i], err = c.numArg(e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// numElem compiles a computed member read obj[idx] in a ToNumber context:
// a typed-array read is the element itself, or NaN (ToNumber of undefined)
// out of range; anything else goes through getElement.
func (c *jsCompiler) numElem(x *eMember) (numFn, error) {
	obj, err := c.valArg(x.obj)
	if err != nil {
		return nil, err
	}
	idx, err := c.numArg(x.computed)
	if err != nil {
		return nil, err
	}
	return func(vm *VM, e *env) (float64, error) {
		ov, err := obj.get(vm, e)
		if err != nil {
			return 0, err
		}
		if ov.Kind == KindObject && ov.Obj.Kind == ObjTypedArray {
			i, err := idx.num(vm, e)
			if err != nil {
				return 0, err
			}
			return ov.Obj.TAGet(int(i)), vm.step(e, JTARead)
		}
		i, iv, err := idx.eval(vm, e)
		if err != nil {
			return 0, err
		}
		v, err := vm.getElement(e, ov, idx.value(i, iv))
		return v.ToNumber(), err
	}, nil
}

// assignCore compiles the assignments both tiers share: any value stored
// into a variable or through a computed member, and the numeric compound
// operators on a variable. ok is false for the others (member targets of
// compound operators, static members, and `+=` that may concatenate).
func (c *jsCompiler) assignCore(x *eAssign) (_ mixedCore, ok bool, _ error) {
	switch lhs := x.lhs.(type) {
	case *eIdent:
		if x.op == "=" {
			d, slot := c.scope.resolve(lhs.name)
			rhs, err := c.numArg(x.rhs)
			if err != nil {
				return nil, true, err
			}
			return func(vm *VM, e *env) (float64, Value, bool, error) {
				n, v, err := rhs.eval(vm, e)
				if err != nil {
					return 0, Undefined, false, err
				}
				if err := vm.step(e, JVarWrite); err != nil {
					return 0, Undefined, false, err
				}
				s := &envAt(e, d).slots[slot]
				if rhs.unboxed() {
					setNum(s, n)
					return n, Value{}, true, nil
				}
				*s = v
				return n, v, false, nil
			}, true, nil
		}
		op := x.op[:len(x.op)-1]
		if op == "+" && (c.ty(lhs) < tPrim || c.ty(x.rhs) < tPrim) {
			return nil, false, nil
		}
		d, slot := c.scope.resolve(lhs.name)
		rhs, err := c.numOperand(x.rhs)
		if err != nil {
			return nil, true, err
		}
		no := numOps[op]
		return func(vm *VM, e *env) (float64, Value, bool, error) {
			if err := vm.step(e, JVarRead); err != nil {
				return 0, Undefined, false, err
			}
			a := envAt(e, d).slots[slot].ToNumber()
			b, err := rhs.num(vm, e)
			if err != nil {
				return 0, Undefined, false, err
			}
			if err := vm.step(e, no.cls); err != nil {
				return 0, Undefined, false, err
			}
			vm.arith[no.group]++
			n := no.f(a, b)
			if err := vm.step(e, JVarWrite); err != nil {
				return 0, Undefined, false, err
			}
			setNum(&envAt(e, d).slots[slot], n)
			return n, Value{}, true, nil
		}, true, nil
	case *eMember:
		if x.op != "=" || lhs.computed == nil {
			return nil, false, nil
		}
		// Compile order matches the boxed tier: target, then value.
		obj, err := c.valArg(lhs.obj)
		if err != nil {
			return nil, true, err
		}
		idx, err := c.numArg(lhs.computed)
		if err != nil {
			return nil, true, err
		}
		rhs, err := c.numArg(x.rhs)
		if err != nil {
			return nil, true, err
		}
		return memberStore(obj, idx, rhs), true, nil
	}
	return nil, false, nil
}

// memberStore is the core of obj[idx] = rhs.
func memberStore(obj, idx, rhs numArg) mixedCore {
	return func(vm *VM, e *env) (float64, Value, bool, error) {
		n, v, err := rhs.eval(vm, e)
		if err != nil {
			return 0, Undefined, false, err
		}
		ov, err := obj.get(vm, e)
		if err != nil {
			return 0, Undefined, false, err
		}
		fast := rhs.unboxed()
		if ov.Kind == KindObject && ov.Obj.Kind == ObjTypedArray {
			i, err := idx.num(vm, e)
			if err != nil {
				return 0, Undefined, false, err
			}
			if err := vm.step(e, JTAWrite); err != nil {
				return 0, Undefined, false, err
			}
			ov.Obj.TASet(int(i), n)
			return n, v, fast, nil
		}
		i, iv, err := idx.eval(vm, e)
		if err != nil {
			return 0, Undefined, false, err
		}
		v = rhs.value(n, v)
		return n, v, fast, vm.setElement(e, ov, idx.value(i, iv), v)
	}
}

// assignStmt compiles the assignment statements Cheerp's inner loops are
// made of to one closure each, chosen here from the operand kinds numArg
// resolves: `x = rhs;` for every kind of rhs, and `obj[idx] = rhs;` with a
// surely numeric rhs (typed-array stores, Cheerp's HEAP32[...] = ...). Each
// charges the steps of the voidExpr → assignCore → numArg.eval chain it
// replaces, in the same order, and keeps that chain's statement safepoint:
// the temporaries are dropped, an assigned object stays rooted, and
// maybeGC runs, on the error path too. ok is false for the other
// assignments.
func (c *jsCompiler) assignStmt(x *eAssign) (_ stmtFn, ok bool, _ error) {
	if x.op != "=" {
		return nil, false, nil
	}
	switch lhs := x.lhs.(type) {
	case *eIdent:
		d, slot := c.scope.resolve(lhs.name)
		rhs, err := c.numArg(x.rhs)
		if err != nil {
			return nil, true, err
		}
		return varStore(d, slot, rhs), true, nil
	case *eMember:
		if lhs.computed == nil {
			return nil, false, nil
		}
		// Compile order matches assignCore: target, then value.
		obj, err := c.valArg(lhs.obj)
		if err != nil {
			return nil, true, err
		}
		idx, err := c.numArg(lhs.computed)
		if err != nil {
			return nil, true, err
		}
		rhs, err := c.numArg(x.rhs)
		if err != nil {
			return nil, true, err
		}
		if !rhs.surelyNum() {
			return coreStmt(memberStore(obj, idx, rhs)), true, nil
		}
		return elemStore(obj, idx, rhs), true, nil
	}
	return nil, false, nil
}

// varStore is the statement x = rhs, x at (d, slot). A literal, a coerced
// variable or literal and a copy run no code that allocates, so their
// closures have no temporaries to drop.
func varStore(d, slot int, rhs numArg) stmtFn {
	switch {
	case rhs.kind == argNum && d == 0:
		f := rhs.n
		return func(vm *VM, e *env) (ctrl, error) {
			tb := len(vm.temps)
			n, err := f(vm, e)
			if err == nil {
				if err = vm.step(e, JVarWrite); err == nil {
					setNum(&e.slots[slot], n)
				}
			}
			vm.temps = vm.temps[:tb]
			vm.maybeGC()
			return ctrlNone, err
		}
	case rhs.kind == argNum:
		f := rhs.n
		return func(vm *VM, e *env) (ctrl, error) {
			tb := len(vm.temps)
			n, err := f(vm, e)
			if err == nil {
				if err = vm.step(e, JVarWrite); err == nil {
					setNum(&envAt(e, d).slots[slot], n)
				}
			}
			vm.temps = vm.temps[:tb]
			vm.maybeGC()
			return ctrlNone, err
		}
	case rhs.surelyNum():
		// A literal, or a variable or literal under a coercion idiom.
		return func(vm *VM, e *env) (ctrl, error) {
			n, err := rhs.num(vm, e)
			if err == nil {
				if err = vm.step(e, JVarWrite); err == nil {
					setNum(&envAt(e, d).slots[slot], n)
				}
			}
			vm.maybeGC()
			return ctrlNone, err
		}
	case rhs.kind == argVar:
		// A copy: a number moves without the 40-byte Value copy.
		sd, ss := rhs.depth, rhs.slot
		return func(vm *VM, e *env) (ctrl, error) {
			src := &envAt(e, sd).slots[ss]
			err := vm.step(e, JVarRead)
			if err == nil {
				if err = vm.step(e, JVarWrite); err == nil {
					dst := &envAt(e, d).slots[slot]
					if src.Kind == KindNumber && dst.Kind == KindNumber {
						dst.Num = src.Num
					} else {
						*dst = *src
						if dst.Kind == KindObject {
							vm.temps = append(vm.temps, dst.Obj)
						}
					}
				}
			}
			vm.maybeGC()
			return ctrlNone, err
		}
	case rhs.kind == argMixed:
		m := rhs.m
		return func(vm *VM, e *env) (ctrl, error) {
			tb := len(vm.temps)
			n, v, fast, err := m(vm, e)
			if err == nil {
				err = vm.step(e, JVarWrite)
			}
			vm.temps = vm.temps[:tb]
			if err == nil {
				s := &envAt(e, d).slots[slot]
				if fast {
					setNum(s, n)
				} else {
					*s = v
					if v.Kind == KindObject {
						vm.temps = append(vm.temps, v.Obj)
					}
				}
			}
			vm.maybeGC()
			return ctrlNone, err
		}
	}
	f := rhs.v
	return func(vm *VM, e *env) (ctrl, error) {
		tb := len(vm.temps)
		v, err := f(vm, e)
		if err == nil {
			err = vm.step(e, JVarWrite)
		}
		vm.temps = vm.temps[:tb]
		if err == nil {
			envAt(e, d).slots[slot] = v
			if v.Kind == KindObject {
				vm.temps = append(vm.temps, v.Obj)
			}
		}
		vm.maybeGC()
		return ctrlNone, err
	}
}

// elemStore is the statement obj[idx] = rhs with a surely numeric rhs: a
// typed-array store writes the element in place, any other target goes
// through setElement with Num of the value. A number needs no rooting.
func elemStore(obj, idx, rhs numArg) stmtFn {
	return func(vm *VM, e *env) (ctrl, error) {
		tb := len(vm.temps)
		err := storeNum(vm, e, &obj, &idx, &rhs)
		vm.temps = vm.temps[:tb]
		vm.maybeGC()
		return ctrlNone, err
	}
}

// storeNum runs obj[idx] = rhs for elemStore, in assignCore's order: the
// value, the target, the index, then the store. A typed-array target needs
// only ToNumber of the index.
func storeNum(vm *VM, e *env, obj, idx, rhs *numArg) error {
	n, err := rhs.num(vm, e)
	if err != nil {
		return err
	}
	ov, err := obj.get(vm, e)
	if err != nil {
		return err
	}
	if ov.Kind == KindObject && ov.Obj.Kind == ObjTypedArray {
		i, err := idx.num(vm, e)
		if err != nil {
			return err
		}
		if err := vm.step(e, JTAWrite); err != nil {
			return err
		}
		ov.Obj.TASet(int(i), n)
		return nil
	}
	i, iv, err := idx.eval(vm, e)
	if err != nil {
		return err
	}
	return vm.setElement(e, ov, idx.value(i, iv), Num(n))
}

// setNum stores a number into a slot. A slot that already holds a number
// has no string or object to clear, so only the payload changes.
func setNum(s *Value, n float64) {
	if s.Kind == KindNumber {
		s.Num = n
		return
	}
	*s = Num(n)
}

// Math intrinsics: the Math functions the numeric tier calls inline. The
// host installs the same functions as natives, so the boxed call and the
// inline one compute the same value.
var (
	mathUnary = map[string]func(float64) float64{
		"sqrt": math.Sqrt, "abs": math.Abs, "floor": math.Floor, "ceil": math.Ceil,
		"round": func(f float64) float64 { return math.Floor(f + 0.5) },
		"trunc": math.Trunc, "sin": math.Sin, "cos": math.Cos, "tan": math.Tan,
		"exp": math.Exp, "log": math.Log, "log2": math.Log2,
		"fround": func(f float64) float64 { return float64(float32(f)) },
	}
	mathBinary = map[string]func(a, b float64) float64{
		"imul": func(a, b float64) float64 { return float64(toInt32(a) * toInt32(b)) },
		"pow":  math.Pow,
		"min":  func(a, b float64) float64 { return math.Min(math.Min(math.Inf(1), a), b) },
		"max":  func(a, b float64) float64 { return math.Max(math.Max(math.Inf(-1), a), b) },
	}
)

// intrinsicArity is the argument count a Math intrinsic is inlined at, or
// -1 for other names.
func intrinsicArity(name string) int {
	if mathUnary[name] != nil {
		return 1
	}
	if mathBinary[name] != nil {
		return 2
	}
	return -1
}

func mathIntrinsic(name string) bool { return intrinsicArity(name) > 0 }

// mixedCore evaluates an expression that is a number on its fast path:
// fast reports that n is the result; otherwise v is the value.
type mixedCore func(vm *VM, e *env) (n float64, v Value, fast bool, err error)

// intrinsic compiles obj.name(args) for a Math intrinsic with its exact
// arity. At run time an identity check on the method's host function
// object guards the inline path; if someone replaced it, the generic
// method call runs, with the same charges either way (one JCallNative
// after the receiver and the arguments).
func (c *jsCompiler) intrinsic(x *eCall) (_ mixedCore, ok bool, _ error) {
	m, isMember := x.callee.(*eMember)
	if !isMember || m.computed != nil {
		return nil, false, nil
	}
	if intrinsicArity(m.name) != len(x.args) {
		return nil, false, nil
	}
	f1, f2 := mathUnary[m.name], mathBinary[m.name]
	mathObj := c.vm.hostFuncs["Math"]
	if mathObj == nil {
		return nil, false, nil
	}
	want := mathObj.Props[m.name]
	if want.Kind != KindObject {
		return nil, false, nil
	}
	// Compile order matches the boxed call: arguments, then receiver.
	args := make([]numArg, len(x.args))
	for i, a := range x.args {
		var err error
		if args[i], err = c.numArg(a); err != nil {
			return nil, true, err
		}
	}
	obj, err := c.valArg(m.obj)
	if err != nil {
		return nil, true, err
	}
	// The guard remembers the last receiver it passed, at that receiver's
	// property version, so the common case skips the property lookup.
	name, fn := m.name, want.Obj
	var seen *Object
	var seenVersion uint32
	guard := func(ov Value) bool {
		if ov.Kind != KindObject {
			return false
		}
		o := ov.Obj
		if o == seen && o.propVersion == seenVersion {
			return true
		}
		if got, ok := o.Props[name]; ok && got.Obj == fn {
			seen, seenVersion = o, o.propVersion
			return true
		}
		return false
	}
	// The guard has no charge, so it runs before the arguments: the inline
	// path needs only their numbers, the generic one their values. A
	// program that replaces the intrinsic inside its own argument list
	// thus has the method read before the arguments are evaluated, in the
	// language's order; the generic call still looks it up again.
	a0 := args[0]
	if f1 != nil {
		return func(vm *VM, e *env) (float64, Value, bool, error) {
			ov, err := obj.get(vm, e)
			if err != nil {
				return 0, Undefined, false, err
			}
			if guard(ov) {
				n0, err := a0.num(vm, e)
				if err != nil {
					return 0, Undefined, false, err
				}
				return f1(n0), Value{}, true, vm.step(e, JCallNative)
			}
			v0, err := a0.val(vm, e)
			if err != nil {
				return 0, Undefined, false, err
			}
			v, err := vm.callMethod(e, ov, name, v0)
			return 0, v, false, err
		}, true, nil
	}
	a1 := args[1]
	return func(vm *VM, e *env) (float64, Value, bool, error) {
		ov, err := obj.get(vm, e)
		if err != nil {
			return 0, Undefined, false, err
		}
		if guard(ov) {
			n0, err := a0.num(vm, e)
			if err != nil {
				return 0, Undefined, false, err
			}
			n1, err := a1.num(vm, e)
			if err != nil {
				return 0, Undefined, false, err
			}
			return f2(n0, n1), Value{}, true, vm.step(e, JCallNative)
		}
		v0, err := a0.val(vm, e)
		if err != nil {
			return 0, Undefined, false, err
		}
		v1, err := a1.val(vm, e)
		if err != nil {
			return 0, Undefined, false, err
		}
		v, err := vm.callMethod(e, ov, name, v0, v1)
		return 0, v, false, err
	}, true, nil
}

// callMethod is the generic path of a guarded intrinsic: the boxed method
// call with its arguments on the argument stack.
func (vm *VM) callMethod(e *env, ov Value, name string, args ...Value) (Value, error) {
	base := len(vm.argStack)
	vm.argStack = append(vm.argStack, args...)
	v, err := vm.invokeMethod(e, ov, name, vm.argStack[base:])
	vm.argStack = vm.argStack[:base]
	return v, err
}

// dynAdd compiles `+` over operands that may be strings: each operand
// compiles to its own tier (see numArg) and the sum stays unboxed; only a
// string operand takes the concatenation path, whose value the core
// returns boxed.
func (c *jsCompiler) dynAdd(x *eBinary) (mixedCore, error) {
	l, err := c.numArg(x.x)
	if err != nil {
		return nil, err
	}
	r, err := c.numArg(x.y)
	if err != nil {
		return nil, err
	}
	return func(vm *VM, e *env) (float64, Value, bool, error) {
		a, av, err := l.eval(vm, e)
		if err != nil {
			return 0, Undefined, false, err
		}
		b, bv, err := r.eval(vm, e)
		if err != nil {
			return 0, Undefined, false, err
		}
		if err := vm.step(e, JAdd); err != nil {
			return 0, Undefined, false, err
		}
		vm.arith[opADD]++
		if av.Kind == KindString || bv.Kind == KindString {
			if err := vm.step(e, JStrOp); err != nil {
				return 0, Undefined, false, err
			}
			v, err := vm.concat(l.value(a, av).ToString(), r.value(b, bv).ToString())
			return 0, v, false, err
		}
		return a + b, Value{}, true, nil
	}, nil
}

// numMixed adapts a mixed core to the numeric tier.
func numMixed(core mixedCore) numFn {
	return func(vm *VM, e *env) (float64, error) {
		n, v, fast, err := core(vm, e)
		if fast {
			return n, err
		}
		return v.ToNumber(), err
	}
}

// boxMixed adapts a mixed core to the boxed tier.
func boxMixed(core mixedCore) exprFn {
	return func(vm *VM, e *env) (Value, error) {
		n, v, fast, err := core(vm, e)
		if fast {
			return Num(n), err
		}
		return v, err
	}
}
