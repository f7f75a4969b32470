package ir

// mapExpr rewrites an expression bottom-up: children first, then fn on the
// rebuilt node. fn must return a non-nil expression.
func mapExpr(e Expr, fn func(Expr) Expr) Expr {
	switch x := e.(type) {
	case *Load:
		x.Addr = mapExpr(x.Addr, fn)
	case *Bin:
		x.X = mapExpr(x.X, fn)
		x.Y = mapExpr(x.Y, fn)
	case *Un:
		x.X = mapExpr(x.X, fn)
	case *Conv:
		x.X = mapExpr(x.X, fn)
	case *Call:
		for i := range x.Args {
			x.Args[i] = mapExpr(x.Args[i], fn)
		}
	case *CallHost:
		for i := range x.Args {
			x.Args[i] = mapExpr(x.Args[i], fn)
		}
	case *Ternary:
		x.C = mapExpr(x.C, fn)
		x.X = mapExpr(x.X, fn)
		x.Y = mapExpr(x.Y, fn)
	case *Seq:
		mapStmtsExprs(x.Stmts, fn)
		x.X = mapExpr(x.X, fn)
	}
	return fn(e)
}

// mapStmtsExprs rewrites every expression inside a statement list in place.
func mapStmtsExprs(body []Stmt, fn func(Expr) Expr) {
	for _, s := range body {
		switch st := s.(type) {
		case *SetLocal:
			st.X = mapExpr(st.X, fn)
		case *SetGlobal:
			st.X = mapExpr(st.X, fn)
		case *Store:
			st.Addr = mapExpr(st.Addr, fn)
			st.X = mapExpr(st.X, fn)
		case *EvalStmt:
			st.X = mapExpr(st.X, fn)
		case *If:
			st.Cond = mapExpr(st.Cond, fn)
			mapStmtsExprs(st.Then, fn)
			mapStmtsExprs(st.Else, fn)
		case *Loop:
			if st.Cond != nil {
				st.Cond = mapExpr(st.Cond, fn)
			}
			mapStmtsExprs(st.Body, fn)
			mapStmtsExprs(st.Post, fn)
		case *Return:
			if st.X != nil {
				st.X = mapExpr(st.X, fn)
			}
		case *Switch:
			st.Tag = mapExpr(st.Tag, fn)
			for i := range st.Cases {
				mapStmtsExprs(st.Cases[i].Body, fn)
			}
			mapStmtsExprs(st.Default, fn)
		case *VecSection:
			mapStmtsExprs(st.Body, fn)
		}
	}
}

// walkExprs visits every expression in a statement list (read-only,
// top-down including children).
func walkExprs(body []Stmt, fn func(Expr)) {
	var ve func(Expr)
	ve = func(e Expr) {
		fn(e)
		switch x := e.(type) {
		case *Load:
			ve(x.Addr)
		case *Bin:
			ve(x.X)
			ve(x.Y)
		case *Un:
			ve(x.X)
		case *Conv:
			ve(x.X)
		case *Call:
			for _, a := range x.Args {
				ve(a)
			}
		case *CallHost:
			for _, a := range x.Args {
				ve(a)
			}
		case *Ternary:
			ve(x.C)
			ve(x.X)
			ve(x.Y)
		case *Seq:
			walkExprs(x.Stmts, fn)
			ve(x.X)
		}
	}
	walkStmts(body, func(s Stmt) {
		switch st := s.(type) {
		case *SetLocal:
			ve(st.X)
		case *SetGlobal:
			ve(st.X)
		case *Store:
			ve(st.Addr)
			ve(st.X)
		case *EvalStmt:
			ve(st.X)
		case *If:
			ve(st.Cond)
		case *Loop:
			if st.Cond != nil {
				ve(st.Cond)
			}
		case *Return:
			if st.X != nil {
				ve(st.X)
			}
		case *Switch:
			ve(st.Tag)
		}
	})
}

// walkStmts visits every statement, outer before inner.
func walkStmts(body []Stmt, fn func(Stmt)) {
	for _, s := range body {
		fn(s)
		switch st := s.(type) {
		case *If:
			walkStmts(st.Then, fn)
			walkStmts(st.Else, fn)
		case *Loop:
			walkStmts(st.Body, fn)
			walkStmts(st.Post, fn)
		case *Switch:
			for i := range st.Cases {
				walkStmts(st.Cases[i].Body, fn)
			}
			walkStmts(st.Default, fn)
		case *VecSection:
			walkStmts(st.Body, fn)
		case *SetLocal:
			walkSeqStmts(st.X, fn)
		case *SetGlobal:
			walkSeqStmts(st.X, fn)
		case *Store:
			walkSeqStmts(st.Addr, fn)
			walkSeqStmts(st.X, fn)
		case *EvalStmt:
			walkSeqStmts(st.X, fn)
		case *Return:
			if st.X != nil {
				walkSeqStmts(st.X, fn)
			}
		}
	}
}

// walkSeqStmts visits statements nested inside Seq expressions.
func walkSeqStmts(e Expr, fn func(Stmt)) {
	switch x := e.(type) {
	case *Seq:
		walkStmts(x.Stmts, fn)
		walkSeqStmts(x.X, fn)
	case *Load:
		walkSeqStmts(x.Addr, fn)
	case *Bin:
		walkSeqStmts(x.X, fn)
		walkSeqStmts(x.Y, fn)
	case *Un:
		walkSeqStmts(x.X, fn)
	case *Conv:
		walkSeqStmts(x.X, fn)
	case *Call:
		for _, a := range x.Args {
			walkSeqStmts(a, fn)
		}
	case *CallHost:
		for _, a := range x.Args {
			walkSeqStmts(a, fn)
		}
	case *Ternary:
		walkSeqStmts(x.C, fn)
		walkSeqStmts(x.X, fn)
		walkSeqStmts(x.Y, fn)
	}
}

// pureExpr reports whether evaluating e has no side effects (loads count as
// pure for value-discard purposes).
func pureExpr(e Expr) bool {
	switch x := e.(type) {
	case *Const, *GetLocal, *GetGlobal, *FrameAddr:
		return true
	case *Load:
		return pureExpr(x.Addr)
	case *Bin:
		return pureExpr(x.X) && pureExpr(x.Y)
	case *Un:
		return pureExpr(x.X)
	case *Conv:
		return pureExpr(x.X)
	case *Ternary:
		return pureExpr(x.C) && pureExpr(x.X) && pureExpr(x.Y)
	case *Call, *CallHost:
		return false
	case *Seq:
		return len(x.Stmts) == 0 && pureExpr(x.X)
	}
	return false
}

// cloneExpr deep-copies an expression.
func cloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case *Const:
		c := *x
		return &c
	case *GetLocal:
		c := *x
		return &c
	case *GetGlobal:
		c := *x
		return &c
	case *FrameAddr:
		c := *x
		return &c
	case *Load:
		return &Load{Mem: x.Mem, Addr: cloneExpr(x.Addr)}
	case *Bin:
		return &Bin{Op: x.Op, T: x.T, Unsigned: x.Unsigned, X: cloneExpr(x.X), Y: cloneExpr(x.Y)}
	case *Un:
		return &Un{Op: x.Op, T: x.T, X: cloneExpr(x.X)}
	case *Conv:
		c := *x
		c.X = cloneExpr(x.X)
		return &c
	case *Call:
		c := &Call{Func: x.Func, T: x.T}
		for _, a := range x.Args {
			c.Args = append(c.Args, cloneExpr(a))
		}
		return c
	case *CallHost:
		c := &CallHost{Name: x.Name, T: x.T}
		for _, a := range x.Args {
			c.Args = append(c.Args, cloneExpr(a))
		}
		return c
	case *Ternary:
		return &Ternary{T: x.T, C: cloneExpr(x.C), X: cloneExpr(x.X), Y: cloneExpr(x.Y)}
	case *Seq:
		return &Seq{Stmts: cloneStmts(x.Stmts), X: cloneExpr(x.X)}
	}
	return e
}

// cloneStmts deep-copies a statement list.
func cloneStmts(body []Stmt) []Stmt {
	out := make([]Stmt, 0, len(body))
	for _, s := range body {
		out = append(out, cloneStmt(s))
	}
	return out
}

func cloneStmt(s Stmt) Stmt {
	switch st := s.(type) {
	case *SetLocal:
		return &SetLocal{Local: st.Local, X: cloneExpr(st.X)}
	case *SetGlobal:
		return &SetGlobal{Global: st.Global, X: cloneExpr(st.X)}
	case *Store:
		return &Store{Mem: st.Mem, Addr: cloneExpr(st.Addr), X: cloneExpr(st.X)}
	case *EvalStmt:
		return &EvalStmt{X: cloneExpr(st.X)}
	case *If:
		return &If{Cond: cloneExpr(st.Cond), Then: cloneStmts(st.Then), Else: cloneStmts(st.Else)}
	case *Loop:
		l := &Loop{PostTest: st.PostTest, Unrolled: st.Unrolled,
			Body: cloneStmts(st.Body), Post: cloneStmts(st.Post)}
		if st.Cond != nil {
			l.Cond = cloneExpr(st.Cond)
		}
		return l
	case *Break:
		return &Break{}
	case *Continue:
		return &Continue{}
	case *Return:
		r := &Return{}
		if st.X != nil {
			r.X = cloneExpr(st.X)
		}
		return r
	case *Switch:
		sw := &Switch{Tag: cloneExpr(st.Tag), Default: cloneStmts(st.Default)}
		for _, cs := range st.Cases {
			sw.Cases = append(sw.Cases, SwitchCase{
				Vals: append([]int64(nil), cs.Vals...),
				Body: cloneStmts(cs.Body),
			})
		}
		return sw
	case *VecSection:
		return &VecSection{Body: cloneStmts(st.Body)}
	}
	return s
}

// countOps estimates the size of an expression in target instructions.
// It recurses directly rather than through a closure: it runs over the
// whole program after every pass whenever a pass hook is attached.
func countOps(e Expr) int {
	n := 1
	switch v := e.(type) {
	case *Load:
		n += countOps(v.Addr)
	case *Bin:
		n += countOps(v.X) + countOps(v.Y)
	case *Un:
		n += countOps(v.X)
	case *Conv:
		n += countOps(v.X)
	case *Call:
		for _, a := range v.Args {
			n += countOps(a)
		}
	case *CallHost:
		for _, a := range v.Args {
			n += countOps(a)
		}
	case *Ternary:
		n += countOps(v.C) + countOps(v.X) + countOps(v.Y)
	case *Seq:
		n += countStmts(v.Stmts)*2 + countOps(v.X)
	}
	return n
}

// countStmts estimates the size of a statement list.
func countStmts(body []Stmt) int {
	n := 0
	walkStmts(body, func(s Stmt) {
		n++
		switch st := s.(type) {
		case *SetLocal:
			n += countOps(st.X)
		case *SetGlobal:
			n += countOps(st.X)
		case *Store:
			n += countOps(st.Addr) + countOps(st.X)
		case *EvalStmt:
			n += countOps(st.X)
		case *If:
			n += countOps(st.Cond)
		case *Loop:
			if st.Cond != nil {
				n += countOps(st.Cond)
			}
		case *Return:
			if st.X != nil {
				n += countOps(st.X)
			}
		}
	})
	return n
}
