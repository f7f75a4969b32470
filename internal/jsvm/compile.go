package jsvm

import (
	"fmt"
	"sort"
)

// Control codes threaded through statement closures.
type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

type stmtFn func(vm *VM, e *env) (ctrl, error)

type exprFn func(vm *VM, e *env) (Value, error)

// refFn writes through a resolved reference (assignment targets).
type refFn func(vm *VM, e *env, v Value) error

// compiledFunc is the executable form of a function (or the program).
type compiledFunc struct {
	name     string
	nParams  int
	nSlots   int
	thisSlot int
	argsSlot int
	slotOf   map[string]int
	code     []stmtFn
	nNodes   int
	hot      uint64
	tieredUp bool
	// numSlot marks the slots that only ever hold numbers (or undefined
	// before their first write); see inferNumSlots. nil for the program.
	numSlot []bool
	// makesClosure is set when the body creates a function object (a
	// function declaration or expression), whose environment is this
	// function's activation record. free holds the returned records of a
	// function without one, for reuse (see activate).
	makesClosure bool
	free         []*env

	// Profiling accumulators, maintained only while vm.profiling is set.
	calls       uint64
	totalCycles float64
	selfCycles  float64
	classCounts [NumJSClasses]uint64
}

// cscope is a compile-time scope.
type cscope struct {
	cf     *compiledFunc
	parent *cscope
}

func (s *cscope) define(name string) int {
	if idx, ok := s.cf.slotOf[name]; ok {
		return idx
	}
	idx := s.cf.nSlots
	s.cf.slotOf[name] = idx
	s.cf.nSlots++
	return idx
}

// resolve finds (depth, slot); unresolved names become globals.
func (s *cscope) resolve(name string) (depth, slot int) {
	d := 0
	for sc := s; sc != nil; sc = sc.parent {
		if idx, ok := sc.cf.slotOf[name]; ok {
			return d, idx
		}
		d++
	}
	// Implicit global.
	root := s
	d = 0
	for root.parent != nil {
		root = root.parent
		d++
	}
	return d, root.define(name)
}

type jsCompiler struct {
	vm    *VM
	scope *cscope
	nodes *int
	// pendingLabel is consumed by the next loop statement compiled (set by
	// sLabeled wrappers).
	pendingLabel string
	// facts are the whole-program typing facts.
	facts *programFacts
	// completion marks the next statement compiled as one whose value Run
	// returns: a top-level statement, an unbraced branch of such an if, or
	// the body of such a labeled statement. stmt consumes it.
	completion bool
}

// takeLabel pops the pending label for the loop being compiled.
func (c *jsCompiler) takeLabel() string {
	l := c.pendingLabel
	c.pendingLabel = ""
	return l
}

// labeledStmt compiles a labeled statement: loops take the label as their
// own; a labeled block consumes labeled breaks targeting it.
func (c *jsCompiler) labeledStmt(label string, body jsStmt) (stmtFn, error) {
	switch body.(type) {
	case *sFor, *sWhile:
		c.pendingLabel = label
		return c.stmt(body)
	}
	inner, err := c.stmt(body)
	if err != nil {
		return nil, err
	}
	return func(vm *VM, e *env) (ctrl, error) {
		ct, err := inner(vm, e)
		if ct == ctrlBreak && vm.ctrlLabel == label {
			vm.ctrlLabel = ""
			return ctrlNone, nil
		}
		return ct, err
	}, nil
}

// compileProgram compiles top-level code.
func compileProgram(vm *VM, body []jsStmt) (*compiledFunc, error) {
	cf := &compiledFunc{name: "(program)", slotOf: map[string]int{}, thisSlot: -1, argsSlot: -1}
	vm.allFuncs = append(vm.allFuncs, cf)
	sc := &cscope{cf: cf}
	pf, top := analyzeProgram(vm, body)
	c := &jsCompiler{vm: vm, scope: sc, nodes: &cf.nNodes, facts: pf}
	for _, name := range top.decls {
		sc.define(name)
	}
	// Pre-bind host names referenced anywhere so Run can install them, in
	// name order so a source gets the same slots on every run.
	var hostNames []string
	for name := range pf.hostRefs {
		if _, ok := vm.hostFuncs[name]; ok {
			hostNames = append(hostNames, name)
		}
	}
	sort.Strings(hostNames)
	for _, name := range hostNames {
		sc.define(name)
	}
	for _, hb := range vm.pendingGlobals {
		if pf.hostRefs[hb.name] {
			sc.define(hb.name)
		}
	}
	c.inferGlobalSlots(pf)
	cf.code = make([]stmtFn, len(body))
	for i, s := range body {
		var err error
		c.completion = true
		cf.code[i], err = c.stmt(s)
		if err != nil {
			return nil, err
		}
	}
	return cf, nil
}

// completionStmt compiles an expression statement in completion position
// (see jsCompiler.completion): its value is the program's completion
// value, which Run returns.
func (c *jsCompiler) completionStmt(s *sExpr) (stmtFn, error) {
	x, err := c.expr(s.x)
	if err != nil {
		return nil, err
	}
	return exprStmt(func(vm *VM, e *env) (Value, error) {
		v, err := x(vm, e)
		vm.completion = v
		return v, err
	}), nil
}

func (c *jsCompiler) node() { *c.nodes++ }

func (c *jsCompiler) stmts(body []jsStmt) ([]stmtFn, error) {
	out := make([]stmtFn, len(body))
	for i, s := range body {
		var err error
		if out[i], err = c.stmt(s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runList(vm *VM, e *env, list []stmtFn) (ctrl, error) {
	for _, s := range list {
		ct, err := s(vm, e)
		if err != nil || ct != ctrlNone {
			return ct, err
		}
	}
	return ctrlNone, nil
}

func (c *jsCompiler) stmt(s jsStmt) (stmtFn, error) {
	c.node()
	top := c.completion
	c.completion = false
	switch st := s.(type) {
	case *sVar:
		if len(st.names) == 1 && st.inits[0] != nil && c.ty(st.inits[0]) == tNum {
			return c.numVar(st.names[0], st.inits[0])
		}
		var fns []stmtFn
		for i, name := range st.names {
			depth, slot := c.scope.resolve(name)
			if st.inits[i] == nil {
				continue
			}
			d, sl := depth, slot
			if c.ty(st.inits[i]) == tNum {
				init, err := c.num(st.inits[i])
				if err != nil {
					return nil, err
				}
				fns = append(fns, func(vm *VM, e *env) (ctrl, error) {
					n, err := init(vm, e)
					if err != nil {
						return ctrlNone, err
					}
					if err := vm.step(e, JVarWrite); err != nil {
						return ctrlNone, err
					}
					setNum(&envAt(e, d).slots[sl], n)
					return ctrlNone, nil
				})
				continue
			}
			init, err := c.expr(st.inits[i])
			if err != nil {
				return nil, err
			}
			fns = append(fns, func(vm *VM, e *env) (ctrl, error) {
				v, err := init(vm, e)
				if err != nil {
					return ctrlNone, err
				}
				if err := vm.step(e, JVarWrite); err != nil {
					return ctrlNone, err
				}
				envAt(e, d).slots[sl] = v
				return ctrlNone, nil
			})
		}
		return func(vm *VM, e *env) (ctrl, error) {
			tb := len(vm.temps)
			ct, err := runList(vm, e, fns)
			vm.temps = vm.temps[:tb]
			vm.maybeGC()
			return ct, err
		}, nil
	case *sFunc:
		depth, slot := c.scope.resolve(st.name)
		fn, err := c.function(st.name, st.params, st.body, st.facts)
		if err != nil {
			return nil, err
		}
		d, sl := depth, slot
		return func(vm *VM, e *env) (ctrl, error) {
			obj := vm.alloc(&Object{Kind: ObjFunction, Fn: &FuncObj{Name: fn.name, Code: fn, Env: e}})
			envAt(e, d).slots[sl] = ObjVal(obj)
			return ctrlNone, nil
		}, nil
	case *sExpr:
		if top {
			return c.completionStmt(st)
		}
		if f, ok, err := c.voidExpr(st.x); ok || err != nil {
			return f, err
		}
		x, err := c.expr(st.x)
		if err != nil {
			return nil, err
		}
		return exprStmt(x), nil
	case *sIf:
		cond, err := c.truth(st.cond)
		if err != nil {
			return nil, err
		}
		if st.els == nil {
			if f, ok := c.exitIf(cond, st.then); ok {
				return f, nil
			}
		}
		c.completion = top
		then, err := c.stmt(st.then)
		if err != nil {
			return nil, err
		}
		var els stmtFn
		if st.els != nil {
			c.completion = top
			els, err = c.stmt(st.els)
			if err != nil {
				return nil, err
			}
		}
		return func(vm *VM, e *env) (ctrl, error) {
			if err := vm.step(e, JBranch); err != nil {
				return ctrlNone, err
			}
			b, err := cond(vm, e)
			if err != nil {
				return ctrlNone, err
			}
			if b {
				return then(vm, e)
			}
			if els != nil {
				return els(vm, e)
			}
			return ctrlNone, nil
		}, nil
	case *sBlock:
		body, err := c.stmts(st.body)
		if err != nil {
			return nil, err
		}
		return func(vm *VM, e *env) (ctrl, error) {
			return runList(vm, e, body)
		}, nil
	case *sFor:
		myLabel := c.takeLabel()
		var init stmtFn
		var err error
		if st.init != nil {
			init, err = c.stmt(st.init)
			if err != nil {
				return nil, err
			}
		}
		var cond truthFn
		if st.cond != nil {
			cond, err = c.truth(st.cond)
			if err != nil {
				return nil, err
			}
		}
		var post exprFn
		if st.post != nil {
			post, err = c.expr(st.post)
			if err != nil {
				return nil, err
			}
		}
		body, err := c.stmt(st.body)
		if err != nil {
			return nil, err
		}
		return func(vm *VM, e *env) (ctrl, error) {
			if init != nil {
				if ct, err := init(vm, e); err != nil || ct == ctrlReturn {
					return ct, err
				}
			}
			for {
				if cond != nil {
					b, err := cond(vm, e)
					if err != nil {
						return ctrlNone, err
					}
					if !b {
						return ctrlNone, nil
					}
				}
				ct, err := body(vm, e)
				if err != nil {
					return ctrlNone, err
				}
				if ct == ctrlBreak {
					if vm.ctrlLabel == "" || vm.ctrlLabel == myLabel {
						vm.ctrlLabel = ""
						return ctrlNone, nil
					}
					return ct, nil
				}
				if ct == ctrlContinue && vm.ctrlLabel != "" && vm.ctrlLabel != myLabel {
					return ct, nil
				}
				vm.ctrlLabel = ""
				if ct == ctrlReturn {
					return ct, nil
				}
				if post != nil {
					tb := len(vm.temps)
					if _, err := post(vm, e); err != nil {
						return ctrlNone, err
					}
					vm.temps = vm.temps[:tb]
				}
				if err := vm.step(e, JLoopBack); err != nil {
					return ctrlNone, err
				}
				vm.bumpLoop(e)
				vm.maybeGC()
			}
		}, nil
	case *sWhile:
		myLabel := c.takeLabel()
		cond, err := c.truth(st.cond)
		if err != nil {
			return nil, err
		}
		body, err := c.stmt(st.body)
		if err != nil {
			return nil, err
		}
		post := st.post
		return func(vm *VM, e *env) (ctrl, error) {
			for {
				if !post {
					b, err := cond(vm, e)
					if err != nil {
						return ctrlNone, err
					}
					if !b {
						return ctrlNone, nil
					}
				}
				ct, err := body(vm, e)
				if err != nil {
					return ctrlNone, err
				}
				if ct == ctrlBreak {
					if vm.ctrlLabel == "" || vm.ctrlLabel == myLabel {
						vm.ctrlLabel = ""
						return ctrlNone, nil
					}
					return ct, nil
				}
				if ct == ctrlContinue && vm.ctrlLabel != "" && vm.ctrlLabel != myLabel {
					return ct, nil
				}
				vm.ctrlLabel = ""
				if ct == ctrlReturn {
					return ct, nil
				}
				if post {
					b, err := cond(vm, e)
					if err != nil {
						return ctrlNone, err
					}
					if !b {
						return ctrlNone, nil
					}
				}
				if err := vm.step(e, JLoopBack); err != nil {
					return ctrlNone, err
				}
				vm.bumpLoop(e)
				vm.maybeGC()
			}
		}, nil
	case *sSwitch:
		tag, err := c.expr(st.tag)
		if err != nil {
			return nil, err
		}
		type ccase struct {
			val  exprFn
			body []stmtFn
		}
		cases := make([]ccase, len(st.cases))
		for i, cs := range st.cases {
			if cs.val != nil {
				cases[i].val, err = c.expr(cs.val)
				if err != nil {
					return nil, err
				}
			}
			cases[i].body, err = c.stmts(cs.body)
			if err != nil {
				return nil, err
			}
		}
		defaultI := st.defaultI
		return func(vm *VM, e *env) (ctrl, error) {
			if err := vm.step(e, JBranch); err != nil {
				return ctrlNone, err
			}
			tv, err := tag(vm, e)
			if err != nil {
				return ctrlNone, err
			}
			start := -1
			for i := range cases {
				if cases[i].val == nil {
					continue
				}
				if err := vm.step(e, JCmp); err != nil {
					return ctrlNone, err
				}
				cv, err := cases[i].val(vm, e)
				if err != nil {
					return ctrlNone, err
				}
				if StrictEquals(tv, cv) {
					start = i
					break
				}
			}
			if start < 0 {
				start = defaultI
			}
			if start < 0 {
				return ctrlNone, nil
			}
			// Fallthrough: execute from the matched case onward.
			for i := start; i < len(cases); i++ {
				ct, err := runList(vm, e, cases[i].body)
				if err != nil {
					return ctrlNone, err
				}
				if ct == ctrlBreak {
					if vm.ctrlLabel == "" {
						return ctrlNone, nil
					}
					return ct, nil
				}
				if ct == ctrlReturn || ct == ctrlContinue {
					return ct, nil
				}
			}
			return ctrlNone, nil
		}, nil
	case *sBreak:
		lbl := st.label
		return func(vm *VM, e *env) (ctrl, error) {
			vm.ctrlLabel = lbl
			return ctrlBreak, nil
		}, nil
	case *sContinue:
		lbl := st.label
		return func(vm *VM, e *env) (ctrl, error) {
			vm.ctrlLabel = lbl
			return ctrlContinue, nil
		}, nil
	case *sLabeled:
		// Attach the label to the wrapped statement for loop/switch
		// consumption; a labeled plain statement just runs it.
		c.completion = top
		body, err := c.labeledStmt(st.label, st.body)
		if err != nil {
			return nil, err
		}
		return body, nil
	case *sReturn:
		if st.x == nil {
			return func(vm *VM, e *env) (ctrl, error) {
				if err := vm.step(e, JReturn); err != nil {
					return ctrlNone, err
				}
				vm.retVal = Undefined
				return ctrlReturn, nil
			}, nil
		}
		// Like a call argument, a numeric result is boxed here, not by an
		// adapter closure (see argList).
		x, err := c.numArg(st.x)
		if err != nil {
			return nil, err
		}
		return func(vm *VM, e *env) (ctrl, error) {
			if err := vm.step(e, JReturn); err != nil {
				return ctrlNone, err
			}
			v, err := x.val(vm, e)
			if err != nil {
				return ctrlNone, err
			}
			vm.retVal = v
			return ctrlReturn, nil
		}, nil
	case *sThrow:
		x, err := c.expr(st.x)
		if err != nil {
			return nil, err
		}
		return func(vm *VM, e *env) (ctrl, error) {
			v, err := x(vm, e)
			if err != nil {
				return ctrlNone, err
			}
			return ctrlNone, &jsThrow{v: v}
		}, nil
	case *sTry:
		body, err := c.stmts(st.body)
		if err != nil {
			return nil, err
		}
		catch, err := c.stmts(st.catch)
		if err != nil {
			return nil, err
		}
		finally, err := c.stmts(st.finally)
		if err != nil {
			return nil, err
		}
		var paramD, paramS int
		hasParam := st.param != ""
		if hasParam {
			paramD, paramS = c.scope.resolve(st.param)
		}
		hasCatch := st.catch != nil
		return func(vm *VM, e *env) (ctrl, error) {
			ct, err := runList(vm, e, body)
			if err != nil && hasCatch {
				if tv, ok := ThrownValue(err); ok {
					if hasParam {
						envAt(e, paramD).slots[paramS] = tv
					}
					ct, err = runList(vm, e, catch)
				}
			}
			if len(finally) > 0 {
				// A return in flight keeps its value across the finally
				// block, whose calls return through vm.retVal too. The
				// block's safepoints must not collect that value or a
				// thrown one, which no record holds.
				rv := vm.retVal
				tb := len(vm.temps)
				if ct == ctrlReturn && rv.Kind == KindObject {
					vm.temps = append(vm.temps, rv.Obj)
				}
				if tv, ok := ThrownValue(err); ok && tv.Kind == KindObject {
					vm.temps = append(vm.temps, tv.Obj)
				}
				fct, ferr := runList(vm, e, finally)
				vm.temps = vm.temps[:tb]
				if ferr != nil || fct != ctrlNone {
					return fct, ferr
				}
				vm.retVal = rv
			}
			return ct, err
		}, nil
	}
	return nil, fmt.Errorf("jsvm: unhandled statement %T", s)
}

// voidExpr compiles an expression statement whose value is dropped:
// numeric expressions run in the numeric tier, plain assignments compile
// to one statement closure each (see assignStmt) and the other assignments
// run their core directly. A number needs no GC rooting; an assigned object
// stays rooted like any statement value.
func (c *jsCompiler) voidExpr(x jsExpr) (stmtFn, bool, error) {
	if a, ok := x.(*eAssign); ok {
		c.node()
		if f, ok, err := c.assignStmt(a); ok || err != nil {
			return f, true, err
		}
		core, ok, err := c.assignCore(a)
		if err != nil {
			return nil, true, err
		}
		if !ok {
			f, err := c.exprBody(x)
			if err != nil {
				return nil, true, err
			}
			core = func(vm *VM, e *env) (float64, Value, bool, error) {
				v, err := f(vm, e)
				return 0, v, false, err
			}
		}
		return coreStmt(core), true, nil
	}
	if c.ty(x) != tNum {
		return nil, false, nil
	}
	f, err := c.num(x)
	if err != nil {
		return nil, true, err
	}
	return func(vm *VM, e *env) (ctrl, error) {
		tb := len(vm.temps)
		_, err := f(vm, e)
		vm.temps = vm.temps[:tb]
		vm.maybeGC()
		return ctrlNone, err
	}, true, nil
}

// numVar compiles `var x = n;` with a surely numeric initializer, the
// declarations every Cheerp function opens with, to one closure: the
// initializer, the write, and the statement's safepoint.
func (c *jsCompiler) numVar(name string, init jsExpr) (stmtFn, error) {
	d, slot := c.scope.resolve(name)
	n, err := c.numArg(init) // surely numeric: c.ty(init) == tNum
	if err != nil {
		return nil, err
	}
	return func(vm *VM, e *env) (ctrl, error) {
		tb := len(vm.temps)
		v, err := n.num(vm, e)
		if err == nil {
			if err = vm.step(e, JVarWrite); err == nil {
				setNum(&envAt(e, d).slots[slot], v)
			}
		}
		vm.temps = vm.temps[:tb]
		vm.maybeGC()
		return ctrlNone, err
	}, nil
}

// exitIf compiles `if (cond) break L;` and `if (cond) continue L;`, the
// exit tests of Cheerp's loops, to one closure: the branch's charge, the
// condition, and the jump.
func (c *jsCompiler) exitIf(cond truthFn, then jsStmt) (stmtFn, bool) {
	var ct ctrl
	var lbl string
	switch st := then.(type) {
	case *sBreak:
		ct, lbl = ctrlBreak, st.label
	case *sContinue:
		ct, lbl = ctrlContinue, st.label
	default:
		return nil, false
	}
	c.node() // the break or continue
	return func(vm *VM, e *env) (ctrl, error) {
		if err := vm.step(e, JBranch); err != nil {
			return ctrlNone, err
		}
		b, err := cond(vm, e)
		if err != nil || !b {
			return ctrlNone, err
		}
		vm.ctrlLabel = lbl
		return ct, nil
	}, true
}

// exprStmt runs x as a statement whose value is dropped: the statement's
// temporaries are dropped, an object result stays rooted, and the
// safepoint runs.
func exprStmt(x exprFn) stmtFn {
	return func(vm *VM, e *env) (ctrl, error) {
		tb := len(vm.temps)
		v, err := x(vm, e)
		vm.temps = vm.temps[:tb]
		if v.Kind == KindObject {
			// Keep the statement's result alive across the safepoint.
			vm.temps = append(vm.temps, v.Obj)
		}
		vm.maybeGC()
		return ctrlNone, err
	}
}

// coreStmt runs an assignment core as a statement: the statement's
// temporaries are dropped, an assigned object stays rooted, and the
// safepoint runs, on the error path too.
func coreStmt(core mixedCore) stmtFn {
	return func(vm *VM, e *env) (ctrl, error) {
		tb := len(vm.temps)
		_, v, fast, err := core(vm, e)
		vm.temps = vm.temps[:tb]
		if !fast && v.Kind == KindObject {
			vm.temps = append(vm.temps, v.Obj)
		}
		vm.maybeGC()
		return ctrlNone, err
	}
}

// function compiles a function body, with the facts the analysis walk
// gathered about it, into a compiledFunc; the enclosing function then
// creates a closure.
func (c *jsCompiler) function(name string, params []string, body []jsStmt, f *funcFacts) (*compiledFunc, error) {
	c.scope.cf.makesClosure = true
	cf := &compiledFunc{
		name:     name,
		nParams:  len(params),
		slotOf:   make(map[string]int, len(params)+len(f.decls)),
		thisSlot: -1,
		argsSlot: -1,
	}
	if cf.name == "" {
		cf.name = "(anonymous)"
	}
	c.vm.allFuncs = append(c.vm.allFuncs, cf)
	sc := &cscope{cf: cf, parent: c.scope}
	for _, p := range params {
		sc.define(p)
	}
	for _, name := range f.decls {
		sc.define(name)
	}
	if f.usesThis {
		cf.thisSlot = sc.define("this")
	}
	if f.usesArguments {
		cf.argsSlot = sc.define("arguments")
	}
	sub := &jsCompiler{vm: c.vm, scope: sc, nodes: &cf.nNodes, facts: c.facts}
	sub.inferNumSlots(f)
	code, err := sub.stmts(body)
	if err != nil {
		return nil, err
	}
	cf.code = code
	return cf, nil
}

// envAt walks d parent links.
func envAt(e *env, d int) *env {
	for ; d > 0; d-- {
		e = e.parent
	}
	return e
}
