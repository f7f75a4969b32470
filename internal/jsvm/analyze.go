package jsvm

// Compile-time analysis: one walk over the whole program, before any code
// is compiled, gathers what the compiler needs to know about each function
// body (its hoisted declarations, the names a numeric slot may not hold,
// `this` and `arguments`) and about the program as a whole (programFacts).

// funcFacts is what the analysis walk learns about one function body, or
// about the program's top level.
type funcFacts struct {
	// decls are the body's hoisted declarations in source order: var names,
	// function declarations and catch parameters, nested functions not
	// entered. Slots are numbered in this order after the parameters.
	decls []string
	// writes are the body's var initializers and assignments to plain
	// names, nested functions not entered: what inferNumSlots types.
	writes []nameWrite
	// pinned are names no numeric slot of the function may hold: its
	// function declarations and catch parameters, and every name mentioned
	// inside a nested function (which could capture the slot).
	pinned []string
	// usesThis: the body uses `this`, nested functions excluded.
	usesThis bool
	// usesArguments: the body names `arguments`, nested functions included.
	usesArguments bool
}

// analyzer carries the walk's state.
type analyzer struct {
	vm *VM
	pf *programFacts
	// open holds the facts of the functions enclosing the node being
	// walked, innermost last; open[0] is the program's top level. Their
	// lists are built on the stacks below and copied out when the function
	// closes.
	open   []*funcFacts
	decls  []string
	writes []nameWrite
	pinned []string
	// bound are the names written other than by `new C(...)`, or declared
	// by a function or catch; newOf the typed-array constructors each name
	// is assigned from.
	bound           map[string]bool
	newOf           map[string][]string
	computedTargets []jsExpr
}

// analyzeProgram walks the program once: it returns the whole-program facts
// and the top level's facts, and attaches each function's facts to its
// sFunc or eFunc node.
func analyzeProgram(vm *VM, body []jsStmt) (*programFacts, *funcFacts) {
	pf := &programFacts{local: map[string]bool{}, hostRefs: map[string]bool{}, mathPure: true}
	a := &analyzer{vm: vm, pf: pf, bound: map[string]bool{}, newOf: map[string][]string{}}
	top := a.function(nil, body)
	for _, hb := range vm.pendingGlobals {
		a.bound[hb.name] = true
	}
	pf.taGlobals = map[string]bool{}
	for name, ctors := range a.newOf {
		ok := !a.bound[name] && !pf.local[name] && vm.hostFuncs[name] == nil
		for _, c := range ctors {
			ok = ok && !a.bound[c] && a.newOf[c] == nil && !pf.local[c]
		}
		if ok {
			pf.taGlobals[name] = true
		}
	}
	if a.bound["Math"] || a.newOf["Math"] != nil || pf.local["Math"] {
		pf.mathPure = false
	}
	for _, t := range a.computedTargets {
		if id, ok := t.(*eIdent); !ok || !pf.taGlobals[id.name] {
			pf.mathPure = false
		}
	}
	return pf, top
}

func (a *analyzer) cur() *funcFacts { return a.open[len(a.open)-1] }

// function walks a function's body (the program's, first) under its own
// facts. A function's parameters and declarations are local names.
func (a *analyzer) function(params []string, body []jsStmt) *funcFacts {
	f := &funcFacts{}
	a.pf.funcs = append(a.pf.funcs, f)
	nested := len(a.open) > 0
	a.open = append(a.open, f)
	db, wb, pb := len(a.decls), len(a.writes), len(a.pinned)
	a.stmts(body)
	f.decls = popList(&a.decls, db)
	f.writes = popList(&a.writes, wb)
	f.pinned = append(f.pinned, popList(&a.pinned, pb)...) // after the names nested functions pinned (see ident)
	a.open = a.open[:len(a.open)-1]
	if nested {
		for _, p := range params {
			a.pf.local[p] = true
		}
		for _, d := range f.decls {
			a.pf.local[d] = true
		}
	}
	return f
}

// write records a write to a plain name: an initializer or assignment
// (x its value), or a declaration, ++ or -- (x nil).
func (a *analyzer) write(name, op string, x jsExpr) {
	if x != nil {
		a.writes = append(a.writes, nameWrite{name, op, x})
	}
	if n, ok := x.(*eNew); ok && op == "=" {
		if ctor, ok := n.callee.(*eIdent); ok && typedArrayCtors[ctor.name] {
			a.newOf[name] = append(a.newOf[name], ctor.name)
			return
		}
	}
	a.bound[name] = true
}

// memberWrite records a write through a member expression.
func (a *analyzer) memberWrite(m *eMember) {
	if m.computed != nil {
		a.computedTargets = append(a.computedTargets, m.obj)
	} else if mathIntrinsic(m.name) {
		a.pf.mathPure = false
	}
}

func (a *analyzer) stmts(list []jsStmt) {
	for _, s := range list {
		a.stmt(s)
	}
}

func (a *analyzer) stmt(s jsStmt) {
	switch st := s.(type) {
	case *sVar:
		a.decls = append(a.decls, st.names...)
		for i, n := range st.names {
			if st.inits[i] != nil {
				a.write(n, "=", st.inits[i])
			}
		}
		a.exprs(st.inits)
	case *sFunc:
		a.decls = append(a.decls, st.name)
		a.pinned = append(a.pinned, st.name)
		a.write(st.name, "=", nil)
		st.facts = a.function(st.params, st.body)
	case *sExpr:
		a.expr(st.x)
	case *sIf:
		a.expr(st.cond)
		a.stmt(st.then)
		a.stmt(st.els)
	case *sBlock:
		a.stmts(st.body)
	case *sFor:
		a.stmt(st.init)
		a.expr(st.cond)
		a.expr(st.post)
		a.stmt(st.body)
	case *sWhile:
		a.expr(st.cond)
		a.stmt(st.body)
	case *sSwitch:
		a.expr(st.tag)
		for _, cs := range st.cases {
			a.expr(cs.val)
			a.stmts(cs.body)
		}
	case *sReturn:
		a.expr(st.x)
	case *sThrow:
		a.expr(st.x)
	case *sTry:
		a.write(st.param, "=", nil)
		a.stmts(st.body)
		if st.param != "" {
			a.decls = append(a.decls, st.param)
			a.pinned = append(a.pinned, st.param)
		}
		a.stmts(st.catch)
		a.stmts(st.finally)
	case *sLabeled:
		a.stmt(st.body)
	}
}

func (a *analyzer) exprs(list []jsExpr) {
	for _, e := range list {
		a.expr(e)
	}
}

func (a *analyzer) expr(e jsExpr) {
	switch x := e.(type) {
	case *eIdent:
		a.ident(x.name)
	case *eThis:
		a.cur().usesThis = true
	case *eArray:
		a.exprs(x.elems)
	case *eObject:
		a.exprs(x.vals)
	case *eFunc:
		x.facts = a.function(x.params, x.body)
	case *eUnary:
		if x.op == "++" || x.op == "--" {
			switch lhs := x.x.(type) {
			case *eIdent:
				a.write(lhs.name, x.op, nil)
			case *eMember:
				a.memberWrite(lhs)
			}
		}
		a.expr(x.x)
	case *eBinary:
		a.expr(x.x)
		a.expr(x.y)
	case *eLogical:
		a.expr(x.x)
		a.expr(x.y)
	case *eAssign:
		switch lhs := x.lhs.(type) {
		case *eIdent:
			a.write(lhs.name, x.op, x.rhs)
		case *eMember:
			a.memberWrite(lhs)
		}
		a.expr(x.lhs)
		a.expr(x.rhs)
	case *eCond:
		a.expr(x.c)
		a.expr(x.t)
		a.expr(x.f)
	case *eCall:
		a.expr(x.callee)
		a.exprs(x.args)
	case *eNew:
		a.expr(x.callee)
		a.exprs(x.args)
	case *eMember:
		a.expr(x.obj)
		a.expr(x.computed)
	case *eSeq:
		a.expr(x.x)
		a.expr(x.y)
	}
}

// ident records a mention of name: Run binds it if the host does, each
// enclosing function that names `arguments` needs the object, and no
// function enclosing the innermost one may type a slot of that name.
func (a *analyzer) ident(name string) {
	if a.hostBinds(name) {
		a.pf.hostRefs[name] = true
	}
	fns := a.open[1:]
	if name == "arguments" {
		for _, f := range fns {
			f.usesArguments = true
		}
	}
	if len(fns) > 1 {
		for _, f := range fns[:len(fns)-1] {
			f.pinned = append(f.pinned, name)
		}
	}
}

// hostBinds reports whether the host binds name: a host function or a
// SetGlobal binding.
func (a *analyzer) hostBinds(name string) bool {
	if _, ok := a.vm.hostFuncs[name]; ok {
		return true
	}
	for _, hb := range a.vm.pendingGlobals {
		if hb.name == name {
			return true
		}
	}
	return false
}
