package jsvm

import "fmt"

func (c *jsCompiler) exprList(list []jsExpr) ([]exprFn, error) {
	out := make([]exprFn, len(list))
	for i, e := range list {
		f, err := c.expr(e)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// expr compiles e in the boxed tier: its closure returns the value itself.
func (c *jsCompiler) expr(e jsExpr) (exprFn, error) {
	c.node()
	return c.exprBody(e)
}

func (c *jsCompiler) exprBody(e jsExpr) (exprFn, error) {
	switch x := e.(type) {
	case *eNum:
		v := Num(x.v)
		return func(vm *VM, e *env) (Value, error) {
			return v, vm.step(e, JConst)
		}, nil
	case *eStr:
		v := Str(x.v)
		return func(vm *VM, e *env) (Value, error) {
			return v, vm.step(e, JConst)
		}, nil
	case *eBool:
		v := Bool(x.v)
		return func(vm *VM, e *env) (Value, error) {
			return v, vm.step(e, JConst)
		}, nil
	case *eNull:
		return func(vm *VM, e *env) (Value, error) {
			return Null, vm.step(e, JConst)
		}, nil
	case *eUndefined:
		return func(vm *VM, e *env) (Value, error) {
			return Undefined, vm.step(e, JConst)
		}, nil
	case *eThis:
		slot := c.scope.cf.thisSlot
		if slot < 0 {
			return func(vm *VM, e *env) (Value, error) { return Undefined, nil }, nil
		}
		return func(vm *VM, e *env) (Value, error) {
			return e.slots[slot], vm.step(e, JVarRead)
		}, nil
	case *eIdent:
		d, slot := c.scope.resolve(x.name)
		if d == 0 {
			return func(vm *VM, e *env) (Value, error) {
				return e.slots[slot], vm.step(e, JVarRead)
			}, nil
		}
		return func(vm *VM, e *env) (Value, error) {
			return envAt(e, d).slots[slot], vm.step(e, JVarRead)
		}, nil
	case *eArray:
		elems, err := c.exprList(x.elems)
		if err != nil {
			return nil, err
		}
		return func(vm *VM, e *env) (Value, error) {
			if err := vm.step(e, JAlloc); err != nil {
				return Undefined, err
			}
			vals := make([]Value, len(elems))
			for i, ef := range elems {
				v, err := ef(vm, e)
				if err != nil {
					return Undefined, err
				}
				vals[i] = v
			}
			return ObjVal(vm.NewArray(vals)), nil
		}, nil
	case *eObject:
		vals, err := c.exprList(x.vals)
		if err != nil {
			return nil, err
		}
		keys := x.keys
		return func(vm *VM, e *env) (Value, error) {
			if err := vm.step(e, JAlloc); err != nil {
				return Undefined, err
			}
			o := vm.NewPlainObject()
			for i, vf := range vals {
				v, err := vf(vm, e)
				if err != nil {
					return Undefined, err
				}
				o.Props[keys[i]] = v
			}
			return ObjVal(o), nil
		}, nil
	case *eFunc:
		cf, err := c.function(x.name, x.params, x.body, x.facts)
		if err != nil {
			return nil, err
		}
		return func(vm *VM, e *env) (Value, error) {
			if err := vm.step(e, JAlloc); err != nil {
				return Undefined, err
			}
			obj := vm.alloc(&Object{Kind: ObjFunction, Fn: &FuncObj{Name: cf.name, Code: cf, Env: e}})
			return ObjVal(obj), nil
		}, nil
	case *eUnary:
		return c.unary(x)
	case *eBinary:
		return c.binary(x)
	case *eLogical:
		l, err := c.expr(x.x)
		if err != nil {
			return nil, err
		}
		r, err := c.expr(x.y)
		if err != nil {
			return nil, err
		}
		and := x.op == "&&"
		return func(vm *VM, e *env) (Value, error) {
			if err := vm.step(e, JBranch); err != nil {
				return Undefined, err
			}
			lv, err := l(vm, e)
			if err != nil {
				return Undefined, err
			}
			if lv.IsTruthy() != and {
				return lv, nil
			}
			return r(vm, e)
		}, nil
	case *eAssign:
		return c.assign(x)
	case *eCond:
		cc, err := c.truth(x.c)
		if err != nil {
			return nil, err
		}
		tt, err := c.expr(x.t)
		if err != nil {
			return nil, err
		}
		ff, err := c.expr(x.f)
		if err != nil {
			return nil, err
		}
		return func(vm *VM, e *env) (Value, error) {
			if err := vm.step(e, JBranch); err != nil {
				return Undefined, err
			}
			b, err := cc(vm, e)
			if err != nil {
				return Undefined, err
			}
			if b {
				return tt(vm, e)
			}
			return ff(vm, e)
		}, nil
	case *eCall:
		return c.call(x)
	case *eNew:
		return c.newExpr(x)
	case *eMember:
		return c.member(x)
	case *eSeq:
		l, err := c.expr(x.x)
		if err != nil {
			return nil, err
		}
		r, err := c.expr(x.y)
		if err != nil {
			return nil, err
		}
		return func(vm *VM, e *env) (Value, error) {
			if _, err := l(vm, e); err != nil {
				return Undefined, err
			}
			return r(vm, e)
		}, nil
	}
	return nil, fmt.Errorf("jsvm: unhandled expression %T", e)
}

func (c *jsCompiler) unary(x *eUnary) (exprFn, error) {
	switch x.op {
	case "!":
		t, err := c.truthBody(x)
		if err != nil {
			return nil, err
		}
		return boxTruth(t), nil
	case "typeof":
		xf, err := c.expr(x.x)
		if err != nil {
			return nil, err
		}
		return func(vm *VM, e *env) (Value, error) {
			v, err := xf(vm, e)
			if err != nil {
				return Undefined, err
			}
			return Str(typeOf(v)), vm.step(e, JCmp)
		}, nil
	}
	f, err := c.numUnary(x)
	if err != nil {
		return nil, err
	}
	return boxNum(f), nil
}

func typeOf(v Value) string {
	switch v.Kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "object"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	default:
		if v.Obj.Kind == ObjFunction {
			return "function"
		}
		return "object"
	}
}

// incDec compiles ++/-- via read-modify-write of a reference.
func (c *jsCompiler) incDec(x *eUnary) (numFn, error) {
	read, write, err := c.reference(x.x)
	if err != nil {
		return nil, err
	}
	delta := 1.0
	if x.op == "--" {
		delta = -1
	}
	postfix := x.postfix
	return func(vm *VM, e *env) (float64, error) {
		if err := vm.step(e, JArith); err != nil {
			return 0, err
		}
		old, err := read(vm, e)
		if err != nil {
			return 0, err
		}
		n := old.ToNumber()
		if err := write(vm, e, Num(n+delta)); err != nil {
			return 0, err
		}
		if postfix {
			return n, nil
		}
		return n + delta, nil
	}, nil
}

// elemReference compiles a computed member obj[idx] into read and write
// closures, with typed-array element access inline.
func (c *jsCompiler) elemReference(x *eMember) (exprFn, refFn, error) {
	obj, err := c.valArg(x.obj)
	if err != nil {
		return nil, nil, err
	}
	idx, err := c.numArg(x.computed)
	if err != nil {
		return nil, nil, err
	}
	read := func(vm *VM, e *env) (Value, error) {
		ov, err := obj.get(vm, e)
		if err != nil {
			return Undefined, err
		}
		if ov.Kind == KindObject && ov.Obj.Kind == ObjTypedArray {
			i, err := idx.num(vm, e)
			if err != nil {
				return Undefined, err
			}
			if err := vm.step(e, JTARead); err != nil {
				return Undefined, err
			}
			o, k := ov.Obj, int(i)
			if k < 0 || k >= o.TA.Len {
				return Undefined, nil
			}
			return Num(o.TAGet(k)), nil
		}
		i, iv, err := idx.eval(vm, e)
		if err != nil {
			return Undefined, err
		}
		return vm.getElement(e, ov, idx.value(i, iv))
	}
	write := func(vm *VM, e *env, v Value) error {
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
			ov.Obj.TASet(int(i), v.ToNumber())
			return nil
		}
		i, iv, err := idx.eval(vm, e)
		if err != nil {
			return err
		}
		return vm.setElement(e, ov, idx.value(i, iv), v)
	}
	return read, write, nil
}

// reference compiles an assignable expression into read and write closures.
func (c *jsCompiler) reference(e jsExpr) (exprFn, refFn, error) {
	switch x := e.(type) {
	case *eIdent:
		d, slot := c.scope.resolve(x.name)
		read := func(vm *VM, e *env) (Value, error) {
			return envAt(e, d).slots[slot], vm.step(e, JVarRead)
		}
		write := func(vm *VM, e *env, v Value) error {
			if err := vm.step(e, JVarWrite); err != nil {
				return err
			}
			envAt(e, d).slots[slot] = v
			return nil
		}
		return read, write, nil
	case *eMember:
		if x.computed != nil {
			return c.elemReference(x)
		}
		objF, err := c.expr(x.obj)
		if err != nil {
			return nil, nil, err
		}
		name := x.name
		read := func(vm *VM, e *env) (Value, error) {
			ov, err := objF(vm, e)
			if err != nil {
				return Undefined, err
			}
			return vm.getMember(e, ov, name)
		}
		write := func(vm *VM, e *env, v Value) error {
			ov, err := objF(vm, e)
			if err != nil {
				return err
			}
			return vm.setMember(e, ov, name, v)
		}
		return read, write, nil
	}
	return nil, nil, fmt.Errorf("jsvm: invalid assignment target %T", e)
}

func (c *jsCompiler) assign(x *eAssign) (exprFn, error) {
	if core, ok, err := c.assignCore(x); ok || err != nil {
		return boxMixed(core), err
	}
	read, write, err := c.reference(x.lhs)
	if err != nil {
		return nil, err
	}
	rhs, err := c.expr(x.rhs)
	if err != nil {
		return nil, err
	}
	if x.op == "=" {
		return func(vm *VM, e *env) (Value, error) {
			v, err := rhs(vm, e)
			if err != nil {
				return Undefined, err
			}
			return v, write(vm, e, v)
		}, nil
	}
	op := binOpFn(x.op[:len(x.op)-1]) // strip '='
	return func(vm *VM, e *env) (Value, error) {
		old, err := read(vm, e)
		if err != nil {
			return Undefined, err
		}
		rv, err := rhs(vm, e)
		if err != nil {
			return Undefined, err
		}
		nv, err := op(vm, e, old, rv)
		if err != nil {
			return Undefined, err
		}
		return nv, write(vm, e, nv)
	}, nil
}

func (c *jsCompiler) binary(x *eBinary) (exprFn, error) {
	if c.numNative(x) {
		if _, ok := numCmps[x.op]; ok {
			t, err := c.truthBody(x)
			if err != nil {
				return nil, err
			}
			return boxTruth(t), nil
		}
		f, err := c.numBinary(x)
		if err != nil {
			return nil, err
		}
		return boxNum(f), nil
	}
	if x.op == "+" {
		core, err := c.dynAdd(x)
		if err != nil {
			return nil, err
		}
		return boxMixed(core), nil
	}
	l, err := c.expr(x.x)
	if err != nil {
		return nil, err
	}
	r, err := c.expr(x.y)
	if err != nil {
		return nil, err
	}
	op := binOpFn(x.op)
	return func(vm *VM, e *env) (Value, error) {
		lv, err := l(vm, e)
		if err != nil {
			return Undefined, err
		}
		rv, err := r(vm, e)
		if err != nil {
			return Undefined, err
		}
		return op(vm, e, lv, rv)
	}, nil
}

// binFn evaluates one binary operator over boxed operands, with its
// coercions and cost accounting.
type binFn func(vm *VM, e *env, a, b Value) (Value, error)

// binOpFn picks an operator's boxed closure at compile time.
func binOpFn(op string) binFn {
	switch op {
	case "+":
		return func(vm *VM, e *env, a, b Value) (Value, error) {
			if err := vm.step(e, JAdd); err != nil {
				return Undefined, err
			}
			vm.arith[opADD]++
			if a.Kind == KindString || b.Kind == KindString {
				if err := vm.step(e, JStrOp); err != nil {
					return Undefined, err
				}
				return vm.concat(a.ToString(), b.ToString())
			}
			return Num(a.ToNumber() + b.ToNumber()), nil
		}
	case "==", "!=":
		want := op == "=="
		return func(vm *VM, e *env, a, b Value) (Value, error) {
			return Bool(LooseEquals(a, b) == want), vm.step(e, JCmp)
		}
	case "===", "!==":
		want := op == "==="
		return func(vm *VM, e *env, a, b Value) (Value, error) {
			return Bool(StrictEquals(a, b) == want), vm.step(e, JCmp)
		}
	case "<", ">", "<=", ">=":
		cmp := numCmps[op]
		var strCmp func(a, b string) bool
		switch op {
		case "<":
			strCmp = func(a, b string) bool { return a < b }
		case ">":
			strCmp = func(a, b string) bool { return a > b }
		case "<=":
			strCmp = func(a, b string) bool { return a <= b }
		default:
			strCmp = func(a, b string) bool { return a >= b }
		}
		return func(vm *VM, e *env, a, b Value) (Value, error) {
			if err := vm.step(e, JCmp); err != nil {
				return Undefined, err
			}
			if a.Kind == KindString && b.Kind == KindString {
				return Bool(strCmp(a.Str, b.Str)), nil
			}
			return Bool(cmp(a.ToNumber(), b.ToNumber())), nil
		}
	}
	no, ok := numOps[op]
	if !ok {
		return func(vm *VM, e *env, a, b Value) (Value, error) {
			return Undefined, fmt.Errorf("jsvm: unhandled operator %q", op)
		}
	}
	return func(vm *VM, e *env, a, b Value) (Value, error) {
		if err := vm.step(e, no.cls); err != nil {
			return Undefined, err
		}
		vm.arith[no.group]++
		return Num(no.f(a.ToNumber(), b.ToNumber())), nil
	}
}

func (c *jsCompiler) member(x *eMember) (exprFn, error) {
	if x.computed != nil {
		read, _, err := c.reference(x)
		return read, err
	}
	objF, err := c.expr(x.obj)
	if err != nil {
		return nil, err
	}
	name := x.name
	return func(vm *VM, e *env) (Value, error) {
		ov, err := objF(vm, e)
		if err != nil {
			return Undefined, err
		}
		return vm.getMember(e, ov, name)
	}, nil
}

// pushArgs evaluates call arguments onto the VM's argument stack and
// returns the stack height before them; the caller pops back to it.
func pushArgs(vm *VM, e *env, args []numArg) (int, error) {
	base := len(vm.argStack)
	for i := range args {
		v, err := args[i].val(vm, e)
		if err != nil {
			vm.argStack = vm.argStack[:base]
			return base, err
		}
		vm.argStack = append(vm.argStack, v)
	}
	return base, nil
}

func (c *jsCompiler) call(x *eCall) (exprFn, error) {
	core, ok, err := c.intrinsic(x)
	if err != nil {
		return nil, err
	}
	if ok {
		return boxMixed(core), nil
	}
	args, err := c.argList(x.args)
	if err != nil {
		return nil, err
	}
	// Method call: callee is a member expression — `this` is the object.
	if m, ok := x.callee.(*eMember); ok {
		objF, err := c.expr(m.obj)
		if err != nil {
			return nil, err
		}
		var idxF exprFn
		if m.computed != nil {
			idxF, err = c.expr(m.computed)
			if err != nil {
				return nil, err
			}
		}
		name := m.name
		return func(vm *VM, e *env) (Value, error) {
			ov, err := objF(vm, e)
			if err != nil {
				return Undefined, err
			}
			n := name
			if idxF != nil {
				iv, err := idxF(vm, e)
				if err != nil {
					return Undefined, err
				}
				n = iv.ToString()
			}
			base, err := pushArgs(vm, e, args)
			if err != nil {
				return Undefined, err
			}
			v, err := vm.invokeMethod(e, ov, n, vm.argStack[base:])
			vm.argStack = vm.argStack[:base]
			return v, err
		}, nil
	}
	callee, err := c.valArg(x.callee)
	if err != nil {
		return nil, err
	}
	return func(vm *VM, e *env) (Value, error) {
		cv, err := callee.get(vm, e)
		if err != nil {
			return Undefined, err
		}
		base, err := pushArgs(vm, e, args)
		if err != nil {
			return Undefined, err
		}
		v, err := vm.callValue(e, cv, vm.argStack[base:])
		vm.argStack = vm.argStack[:base]
		return v, err
	}, nil
}

// callValue calls a function value with no receiver.
func (vm *VM) callValue(e *env, cv Value, args []Value) (Value, error) {
	if cv.Kind != KindObject || cv.Obj.Kind != ObjFunction {
		return Undefined, &jsThrow{v: Str("TypeError: not a function")}
	}
	cls := JCall
	if cv.Obj.Fn.Native != nil {
		cls = JCallNative
	}
	if err := vm.step(e, cls); err != nil {
		return Undefined, err
	}
	return vm.callFuncObj(cv.Obj, Undefined, args)
}

func (c *jsCompiler) newExpr(x *eNew) (exprFn, error) {
	calleeF, err := c.expr(x.callee)
	if err != nil {
		return nil, err
	}
	args, err := c.argList(x.args)
	if err != nil {
		return nil, err
	}
	return func(vm *VM, e *env) (Value, error) {
		cv, err := calleeF(vm, e)
		if err != nil {
			return Undefined, err
		}
		base, err := pushArgs(vm, e, args)
		if err != nil {
			return Undefined, err
		}
		v, err := vm.construct(e, cv, vm.argStack[base:])
		vm.argStack = vm.argStack[:base]
		return v, err
	}, nil
}

// construct runs `new cv(args)`.
func (vm *VM) construct(e *env, cv Value, args []Value) (Value, error) {
	if cv.Kind != KindObject || cv.Obj.Kind != ObjFunction {
		return Undefined, &jsThrow{v: Str("TypeError: not a constructor")}
	}
	if err := vm.step(e, JAlloc); err != nil {
		return Undefined, err
	}
	fn := cv.Obj.Fn
	if fn.Native != nil {
		// Native constructors (typed arrays, ArrayBuffer) return the
		// instance directly.
		return fn.Native(vm, Undefined, args)
	}
	this := vm.NewPlainObject()
	ret, err := vm.callFuncObj(cv.Obj, ObjVal(this), args)
	if err != nil {
		return Undefined, err
	}
	if ret.Kind == KindObject {
		return ret, nil
	}
	return ObjVal(this), nil
}
