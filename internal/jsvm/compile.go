package jsvm

import "fmt"

// Control codes threaded through statement closures.
type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

type stmtFn func(vm *VM, e *env) (ctrl, Value, error)

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
	return func(vm *VM, e *env) (ctrl, Value, error) {
		ct, v, err := inner(vm, e)
		if ct == ctrlBreak && vm.ctrlLabel == label {
			vm.ctrlLabel = ""
			return ctrlNone, Undefined, nil
		}
		return ct, v, err
	}, nil
}

// compileProgram compiles top-level code.
func compileProgram(vm *VM, body []jsStmt) (*compiledFunc, error) {
	cf := &compiledFunc{name: "(program)", slotOf: map[string]int{}, thisSlot: -1, argsSlot: -1}
	vm.allFuncs = append(vm.allFuncs, cf)
	sc := &cscope{cf: cf}
	pf := analyzeProgram(vm, body)
	c := &jsCompiler{vm: vm, scope: sc, nodes: &cf.nNodes, facts: pf}
	hoist(body, sc)
	// Pre-bind host names referenced anywhere so Run can install them.
	names := identNames(body)
	for name := range vm.hostFuncs {
		if names[name] {
			sc.define(name)
		}
	}
	for _, hb := range vm.pendingGlobals {
		if names[hb.name] {
			sc.define(hb.name)
		}
	}
	c.inferGlobalSlots(pf)
	code, err := c.stmts(body)
	if err != nil {
		return nil, err
	}
	cf.code = code
	return cf, nil
}

// hoist declares vars and function declarations into the scope (function
// scoping; nested functions are not entered).
func hoist(body []jsStmt, sc *cscope) {
	for _, s := range body {
		switch st := s.(type) {
		case *sVar:
			for _, n := range st.names {
				sc.define(n)
			}
		case *sFunc:
			sc.define(st.name)
		case *sBlock:
			hoist(st.body, sc)
		case *sIf:
			hoist([]jsStmt{st.then}, sc)
			if st.els != nil {
				hoist([]jsStmt{st.els}, sc)
			}
		case *sFor:
			if st.init != nil {
				hoist([]jsStmt{st.init}, sc)
			}
			hoist([]jsStmt{st.body}, sc)
		case *sWhile:
			hoist([]jsStmt{st.body}, sc)
		case *sSwitch:
			for _, cs := range st.cases {
				hoist(cs.body, sc)
			}
		case *sTry:
			hoist(st.body, sc)
			if st.param != "" {
				sc.define(st.param)
			}
			hoist(st.catch, sc)
			hoist(st.finally, sc)
		case *sLabeled:
			hoist([]jsStmt{st.body}, sc)
		}
	}
}

// walk calls fs on every statement and fe on every expression of body, in
// source order, labeled statements included; into says whether it enters
// nested function bodies.
func walk(body []jsStmt, into bool, fs func(jsStmt), fe func(jsExpr)) {
	var ve func(e jsExpr)
	var vs func(s jsStmt)
	ves := func(list []jsExpr) {
		for _, e := range list {
			ve(e)
		}
	}
	vss := func(list []jsStmt) {
		for _, s := range list {
			vs(s)
		}
	}
	ve = func(e jsExpr) {
		if e == nil {
			return
		}
		if fe != nil {
			fe(e)
		}
		switch x := e.(type) {
		case *eArray:
			ves(x.elems)
		case *eObject:
			ves(x.vals)
		case *eFunc:
			if into {
				vss(x.body)
			}
		case *eUnary:
			ve(x.x)
		case *eBinary:
			ve(x.x)
			ve(x.y)
		case *eLogical:
			ve(x.x)
			ve(x.y)
		case *eAssign:
			ve(x.lhs)
			ve(x.rhs)
		case *eCond:
			ve(x.c)
			ve(x.t)
			ve(x.f)
		case *eCall:
			ve(x.callee)
			ves(x.args)
		case *eNew:
			ve(x.callee)
			ves(x.args)
		case *eMember:
			ve(x.obj)
			ve(x.computed)
		case *eSeq:
			ve(x.x)
			ve(x.y)
		}
	}
	vs = func(s jsStmt) {
		if s == nil {
			return
		}
		if fs != nil {
			fs(s)
		}
		switch st := s.(type) {
		case *sVar:
			ves(st.inits)
		case *sFunc:
			if into {
				vss(st.body)
			}
		case *sExpr:
			ve(st.x)
		case *sIf:
			ve(st.cond)
			vs(st.then)
			vs(st.els)
		case *sBlock:
			vss(st.body)
		case *sFor:
			vs(st.init)
			ve(st.cond)
			ve(st.post)
			vs(st.body)
		case *sWhile:
			ve(st.cond)
			vs(st.body)
		case *sSwitch:
			ve(st.tag)
			for _, cs := range st.cases {
				ve(cs.val)
				vss(cs.body)
			}
		case *sReturn:
			ve(st.x)
		case *sThrow:
			ve(st.x)
		case *sTry:
			vss(st.body)
			vss(st.catch)
			vss(st.finally)
		case *sLabeled:
			vs(st.body)
		}
	}
	vss(body)
}

// identNames collects the identifiers a program mentions, nested functions
// included (used to bind host globals lazily).
func identNames(body []jsStmt) map[string]bool {
	names := map[string]bool{}
	walk(body, true, nil, func(e jsExpr) {
		if id, ok := e.(*eIdent); ok {
			names[id.name] = true
		}
	})
	return names
}

// referencesThis reports whether a function body (nested functions
// excluded) uses `this`.
func referencesThis(body []jsStmt) bool {
	found := false
	walk(body, false, nil, func(e jsExpr) {
		if _, ok := e.(*eThis); ok {
			found = true
		}
	})
	return found
}

func (c *jsCompiler) node() { *c.nodes++ }

func (c *jsCompiler) stmts(body []jsStmt) ([]stmtFn, error) {
	var out []stmtFn
	for _, s := range body {
		f, err := c.stmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func runList(vm *VM, e *env, list []stmtFn) (ctrl, Value, error) {
	for _, s := range list {
		ct, v, err := s(vm, e)
		if err != nil || ct != ctrlNone {
			return ct, v, err
		}
	}
	return ctrlNone, Undefined, nil
}

func (c *jsCompiler) stmt(s jsStmt) (stmtFn, error) {
	c.node()
	switch st := s.(type) {
	case *sVar:
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
				fns = append(fns, func(vm *VM, e *env) (ctrl, Value, error) {
					n, err := init(vm, e)
					if err != nil {
						return ctrlNone, Undefined, err
					}
					if err := vm.step(e, JVarWrite); err != nil {
						return ctrlNone, Undefined, err
					}
					setNum(&envAt(e, d).slots[sl], n)
					return ctrlNone, Undefined, nil
				})
				continue
			}
			init, err := c.expr(st.inits[i])
			if err != nil {
				return nil, err
			}
			fns = append(fns, func(vm *VM, e *env) (ctrl, Value, error) {
				v, err := init(vm, e)
				if err != nil {
					return ctrlNone, Undefined, err
				}
				if err := vm.step(e, JVarWrite); err != nil {
					return ctrlNone, Undefined, err
				}
				envAt(e, d).slots[sl] = v
				return ctrlNone, Undefined, nil
			})
		}
		return func(vm *VM, e *env) (ctrl, Value, error) {
			tb := len(vm.temps)
			ct, v, err := runList(vm, e, fns)
			vm.temps = vm.temps[:tb]
			vm.maybeGC()
			return ct, v, err
		}, nil
	case *sFunc:
		depth, slot := c.scope.resolve(st.name)
		fn, err := c.function(st.name, st.params, st.body)
		if err != nil {
			return nil, err
		}
		d, sl := depth, slot
		return func(vm *VM, e *env) (ctrl, Value, error) {
			obj := vm.alloc(&Object{Kind: ObjFunction, Fn: &FuncObj{Name: fn.name, Code: fn, Env: e}})
			envAt(e, d).slots[sl] = ObjVal(obj)
			return ctrlNone, Undefined, nil
		}, nil
	case *sExpr:
		if c.scope.parent != nil {
			if f, ok, err := c.voidExpr(st.x); ok || err != nil {
				return f, err
			}
		}
		x, err := c.expr(st.x)
		if err != nil {
			return nil, err
		}
		return func(vm *VM, e *env) (ctrl, Value, error) {
			tb := len(vm.temps)
			v, err := x(vm, e)
			vm.temps = vm.temps[:tb]
			if v.Kind == KindObject {
				// Keep the statement's result alive across the safepoint.
				vm.temps = append(vm.temps, v.Obj)
			}
			vm.maybeGC()
			return ctrlNone, v, err
		}, nil
	case *sIf:
		cond, err := c.truth(st.cond)
		if err != nil {
			return nil, err
		}
		then, err := c.stmt(st.then)
		if err != nil {
			return nil, err
		}
		var els stmtFn
		if st.els != nil {
			els, err = c.stmt(st.els)
			if err != nil {
				return nil, err
			}
		}
		return func(vm *VM, e *env) (ctrl, Value, error) {
			if err := vm.step(e, JBranch); err != nil {
				return ctrlNone, Undefined, err
			}
			b, err := cond(vm, e)
			if err != nil {
				return ctrlNone, Undefined, err
			}
			if b {
				return then(vm, e)
			}
			if els != nil {
				return els(vm, e)
			}
			return ctrlNone, Undefined, nil
		}, nil
	case *sBlock:
		body, err := c.stmts(st.body)
		if err != nil {
			return nil, err
		}
		return func(vm *VM, e *env) (ctrl, Value, error) {
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
		return func(vm *VM, e *env) (ctrl, Value, error) {
			if init != nil {
				if ct, v, err := init(vm, e); err != nil || ct == ctrlReturn {
					return ct, v, err
				}
			}
			for {
				if cond != nil {
					b, err := cond(vm, e)
					if err != nil {
						return ctrlNone, Undefined, err
					}
					if !b {
						return ctrlNone, Undefined, nil
					}
				}
				ct, v, err := body(vm, e)
				if err != nil {
					return ctrlNone, Undefined, err
				}
				if ct == ctrlBreak {
					if vm.ctrlLabel == "" || vm.ctrlLabel == myLabel {
						vm.ctrlLabel = ""
						return ctrlNone, Undefined, nil
					}
					return ct, Undefined, nil
				}
				if ct == ctrlContinue && vm.ctrlLabel != "" && vm.ctrlLabel != myLabel {
					return ct, Undefined, nil
				}
				vm.ctrlLabel = ""
				if ct == ctrlReturn {
					return ct, v, nil
				}
				if post != nil {
					tb := len(vm.temps)
					if _, err := post(vm, e); err != nil {
						return ctrlNone, Undefined, err
					}
					vm.temps = vm.temps[:tb]
				}
				if err := vm.step(e, JLoopBack); err != nil {
					return ctrlNone, Undefined, err
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
		return func(vm *VM, e *env) (ctrl, Value, error) {
			for {
				if !post {
					b, err := cond(vm, e)
					if err != nil {
						return ctrlNone, Undefined, err
					}
					if !b {
						return ctrlNone, Undefined, nil
					}
				}
				ct, v, err := body(vm, e)
				if err != nil {
					return ctrlNone, Undefined, err
				}
				if ct == ctrlBreak {
					if vm.ctrlLabel == "" || vm.ctrlLabel == myLabel {
						vm.ctrlLabel = ""
						return ctrlNone, Undefined, nil
					}
					return ct, Undefined, nil
				}
				if ct == ctrlContinue && vm.ctrlLabel != "" && vm.ctrlLabel != myLabel {
					return ct, Undefined, nil
				}
				vm.ctrlLabel = ""
				if ct == ctrlReturn {
					return ct, v, nil
				}
				if post {
					b, err := cond(vm, e)
					if err != nil {
						return ctrlNone, Undefined, err
					}
					if !b {
						return ctrlNone, Undefined, nil
					}
				}
				if err := vm.step(e, JLoopBack); err != nil {
					return ctrlNone, Undefined, err
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
		return func(vm *VM, e *env) (ctrl, Value, error) {
			if err := vm.step(e, JBranch); err != nil {
				return ctrlNone, Undefined, err
			}
			tv, err := tag(vm, e)
			if err != nil {
				return ctrlNone, Undefined, err
			}
			start := -1
			for i := range cases {
				if cases[i].val == nil {
					continue
				}
				if err := vm.step(e, JCmp); err != nil {
					return ctrlNone, Undefined, err
				}
				cv, err := cases[i].val(vm, e)
				if err != nil {
					return ctrlNone, Undefined, err
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
				return ctrlNone, Undefined, nil
			}
			// Fallthrough: execute from the matched case onward.
			for i := start; i < len(cases); i++ {
				ct, v, err := runList(vm, e, cases[i].body)
				if err != nil {
					return ctrlNone, Undefined, err
				}
				if ct == ctrlBreak {
					if vm.ctrlLabel == "" {
						return ctrlNone, Undefined, nil
					}
					return ct, Undefined, nil
				}
				if ct == ctrlReturn || ct == ctrlContinue {
					return ct, v, nil
				}
			}
			return ctrlNone, Undefined, nil
		}, nil
	case *sBreak:
		lbl := st.label
		return func(vm *VM, e *env) (ctrl, Value, error) {
			vm.ctrlLabel = lbl
			return ctrlBreak, Undefined, nil
		}, nil
	case *sContinue:
		lbl := st.label
		return func(vm *VM, e *env) (ctrl, Value, error) {
			vm.ctrlLabel = lbl
			return ctrlContinue, Undefined, nil
		}, nil
	case *sLabeled:
		// Attach the label to the wrapped statement for loop/switch
		// consumption; a labeled plain statement just runs it.
		body, err := c.labeledStmt(st.label, st.body)
		if err != nil {
			return nil, err
		}
		return body, nil
	case *sReturn:
		var x exprFn
		var err error
		if st.x != nil {
			x, err = c.expr(st.x)
			if err != nil {
				return nil, err
			}
		}
		return func(vm *VM, e *env) (ctrl, Value, error) {
			if err := vm.step(e, JReturn); err != nil {
				return ctrlNone, Undefined, err
			}
			if x == nil {
				return ctrlReturn, Undefined, nil
			}
			v, err := x(vm, e)
			if err != nil {
				return ctrlNone, Undefined, err
			}
			return ctrlReturn, v, nil
		}, nil
	case *sThrow:
		x, err := c.expr(st.x)
		if err != nil {
			return nil, err
		}
		return func(vm *VM, e *env) (ctrl, Value, error) {
			v, err := x(vm, e)
			if err != nil {
				return ctrlNone, Undefined, err
			}
			return ctrlNone, Undefined, &jsThrow{v: v}
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
		return func(vm *VM, e *env) (ctrl, Value, error) {
			ct, v, err := runList(vm, e, body)
			if err != nil && hasCatch {
				if tv, ok := ThrownValue(err); ok {
					if hasParam {
						envAt(e, paramD).slots[paramS] = tv
					}
					ct, v, err = runList(vm, e, catch)
				}
			}
			if len(finally) > 0 {
				fct, fv, ferr := runList(vm, e, finally)
				if ferr != nil || fct != ctrlNone {
					return fct, fv, ferr
				}
			}
			return ct, v, err
		}, nil
	}
	return nil, fmt.Errorf("jsvm: unhandled statement %T", s)
}

// voidExpr compiles an expression statement inside a function, where the
// statement's value is dropped: numeric expressions run in the numeric
// tier and assignments run their core directly. A number needs no GC
// rooting; an assigned object stays rooted like any statement value.
func (c *jsCompiler) voidExpr(x jsExpr) (stmtFn, bool, error) {
	if a, ok := x.(*eAssign); ok {
		c.node()
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
		return func(vm *VM, e *env) (ctrl, Value, error) {
			tb := len(vm.temps)
			_, v, fast, err := core(vm, e)
			vm.temps = vm.temps[:tb]
			if !fast && v.Kind == KindObject {
				vm.temps = append(vm.temps, v.Obj)
			}
			vm.maybeGC()
			return ctrlNone, Undefined, err
		}, true, nil
	}
	if c.ty(x) != tNum {
		return nil, false, nil
	}
	f, err := c.num(x)
	if err != nil {
		return nil, true, err
	}
	return func(vm *VM, e *env) (ctrl, Value, error) {
		tb := len(vm.temps)
		_, err := f(vm, e)
		vm.temps = vm.temps[:tb]
		vm.maybeGC()
		return ctrlNone, Undefined, err
	}, true, nil
}

// function compiles a function body into a compiledFunc.
func (c *jsCompiler) function(name string, params []string, body []jsStmt) (*compiledFunc, error) {
	cf := &compiledFunc{
		name:     name,
		nParams:  len(params),
		slotOf:   map[string]int{},
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
	hoist(body, sc)
	if referencesThis(body) {
		cf.thisSlot = sc.define("this")
	}
	if identNames(body)["arguments"] {
		cf.argsSlot = sc.define("arguments")
	}
	sub := &jsCompiler{vm: c.vm, scope: sc, nodes: &cf.nNodes, facts: c.facts}
	sub.inferNumSlots(body)
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
