package jsvm

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strconv"
)

// Engine maxima, for the external fuzz test's memory bound.
const (
	MaxArrayLength = maxArrayLength
	MaxBufferBytes = maxBufferBytes
)

// FrontEnd runs the front end on src as Run does, without running the
// program, and renders what it produced: the token count and a digest of
// every token's kind, text, value and line; a digest of the AST from a
// canonical printer; and over the compiled functions, the AST node count
// (what tier-up charges CompilePerNode for), the slot count and a digest of
// each function's slot numbering and slot typing. A source the front end
// rejects renders as its error message.
func FrontEnd(src string) string {
	body, err := jsParse(src)
	if err != nil {
		return fmt.Sprintf("error=%q syntax=%v", err.Error(), errors.Is(err, ErrJSSyntax))
	}
	toks, err := jsLex(src)
	if err != nil {
		panic("parse succeeded where lexing failed: " + err.Error())
	}
	th := fnv.New64a()
	for _, t := range toks {
		fmt.Fprintf(th, "%s %q %x %d\n", tokKindName(t.kind), t.text, math.Float64bits(t.num), t.line)
	}
	ah := fnv.New64a()
	printStmts(ah, body)
	vm := New(DefaultConfig())
	if _, err := compileProgram(vm, body); err != nil {
		err = &syntaxError{err}
		return fmt.Sprintf("toks=%d tokens=%016x ast=%016x compile-error=%q syntax=%v",
			len(toks), th.Sum64(), ah.Sum64(), err.Error(), errors.Is(err, ErrJSSyntax))
	}
	fh := fnv.New64a()
	nodes, slots := 0, 0
	for _, cf := range vm.allFuncs {
		nodes += cf.nNodes
		slots += cf.nSlots
		names := make([]string, cf.nSlots)
		for name, idx := range cf.slotOf {
			names[idx] = name
		}
		fmt.Fprintf(fh, "%q params=%d slots=%d this=%d args=%d nodes=%d closure=%v %q %v\n",
			cf.name, cf.nParams, cf.nSlots, cf.thisSlot, cf.argsSlot, cf.nNodes, cf.makesClosure, names, cf.numSlot)
	}
	return fmt.Sprintf("toks=%d tokens=%016x ast=%016x funcs=%d nodes=%d slots=%d layout=%016x",
		len(toks), th.Sum64(), ah.Sum64(), len(vm.allFuncs), nodes, slots, fh.Sum64())
}

// jsLex lexes all of src.
func jsLex(src string) ([]jsTok, error) {
	lx := jsLexer{src: src, line: 1}
	var toks []jsTok
	for {
		t := lx.next()
		toks = append(toks, t)
		if t.kind == jtEOF {
			return toks, lx.err
		}
	}
}

func tokKindName(k jsTokKind) string {
	return [...]string{"eof", "ident", "keyword", "number", "string", "punct"}[k]
}

// printStmts writes the canonical form of a statement list: one
// parenthesized prefix form per node, every field in declaration order.
func printStmts(h hash.Hash64, list []jsStmt) {
	fmt.Fprintf(h, "[%d", len(list))
	for _, s := range list {
		h.Write([]byte{' '})
		printStmt(h, s)
	}
	h.Write([]byte{']'})
}

func printStmt(h hash.Hash64, s jsStmt) {
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	switch st := s.(type) {
	case nil:
		w("_")
	case *sVar:
		w("(var %q ", st.names)
		printExprs(h, st.inits)
		w(")")
	case *sFunc:
		w("(function %q %q ", st.name, st.params)
		printStmts(h, st.body)
		w(")")
	case *sExpr:
		w("(expr ")
		printExpr(h, st.x)
		w(")")
	case *sIf:
		w("(if ")
		printExpr(h, st.cond)
		w(" ")
		printStmt(h, st.then)
		w(" ")
		printStmt(h, st.els)
		w(")")
	case *sBlock:
		w("(block ")
		printStmts(h, st.body)
		w(")")
	case *sFor:
		w("(for ")
		printStmt(h, st.init)
		w(" ")
		printExpr(h, st.cond)
		w(" ")
		printExpr(h, st.post)
		w(" ")
		printStmt(h, st.body)
		w(")")
	case *sWhile:
		w("(while %v ", st.post)
		printExpr(h, st.cond)
		w(" ")
		printStmt(h, st.body)
		w(")")
	case *sSwitch:
		w("(switch %d ", st.defaultI)
		printExpr(h, st.tag)
		for _, cs := range st.cases {
			w(" (case ")
			printExpr(h, cs.val)
			w(" ")
			printStmts(h, cs.body)
			w(")")
		}
		w(")")
	case *sBreak:
		w("(break %q)", st.label)
	case *sContinue:
		w("(continue %q)", st.label)
	case *sLabeled:
		w("(label %q ", st.label)
		printStmt(h, st.body)
		w(")")
	case *sReturn:
		w("(return ")
		printExpr(h, st.x)
		w(")")
	case *sThrow:
		w("(throw ")
		printExpr(h, st.x)
		w(")")
	case *sTry:
		w("(try %q ", st.param)
		printStmts(h, st.body)
		w(" ")
		printStmts(h, st.catch)
		w(" ")
		printStmts(h, st.finally)
		w(" catch=%v finally=%v)", st.catch != nil, st.finally != nil)
	default:
		panic(fmt.Sprintf("unprinted statement %T", s))
	}
}

func printExprs(h hash.Hash64, list []jsExpr) {
	fmt.Fprintf(h, "[%d", len(list))
	for _, e := range list {
		h.Write([]byte{' '})
		printExpr(h, e)
	}
	h.Write([]byte{']'})
}

func printExpr(h hash.Hash64, e jsExpr) {
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	switch x := e.(type) {
	case nil:
		w("_")
	case *eNum:
		w("(num %x)", math.Float64bits(x.v))
	case *eStr:
		w("(str %s)", strconv.Quote(x.v))
	case *eBool:
		w("(bool %v)", x.v)
	case *eNull:
		w("(null)")
	case *eUndefined:
		w("(undefined)")
	case *eThis:
		w("(this)")
	case *eIdent:
		w("(ident %q)", x.name)
	case *eArray:
		w("(array ")
		printExprs(h, x.elems)
		w(")")
	case *eObject:
		w("(object %q ", x.keys)
		printExprs(h, x.vals)
		w(")")
	case *eFunc:
		w("(func %q %q ", x.name, x.params)
		printStmts(h, x.body)
		w(")")
	case *eUnary:
		w("(unary %q %v ", x.op, x.postfix)
		printExpr(h, x.x)
		w(")")
	case *eBinary:
		w("(binary %q ", x.op)
		printExpr(h, x.x)
		w(" ")
		printExpr(h, x.y)
		w(")")
	case *eLogical:
		w("(logical %q ", x.op)
		printExpr(h, x.x)
		w(" ")
		printExpr(h, x.y)
		w(")")
	case *eAssign:
		w("(assign %q ", x.op)
		printExpr(h, x.lhs)
		w(" ")
		printExpr(h, x.rhs)
		w(")")
	case *eCond:
		w("(cond ")
		printExprs(h, []jsExpr{x.c, x.t, x.f})
		w(")")
	case *eCall:
		w("(call ")
		printExpr(h, x.callee)
		w(" ")
		printExprs(h, x.args)
		w(" args=%v)", x.args != nil)
	case *eNew:
		w("(new ")
		printExpr(h, x.callee)
		w(" ")
		printExprs(h, x.args)
		w(" args=%v)", x.args != nil)
	case *eMember:
		w("(member %q ", x.name)
		printExpr(h, x.obj)
		w(" ")
		printExpr(h, x.computed)
		w(")")
	case *eSeq:
		w("(seq ")
		printExpr(h, x.x)
		w(" ")
		printExpr(h, x.y)
		w(")")
	default:
		panic(fmt.Sprintf("unprinted expression %T", e))
	}
}

// Lex, Parse and Compile are the front end's three stages, for
// BenchmarkJSFrontEnd.
func Lex(src string) error {
	lx := jsLexer{src: src, line: 1}
	for lx.next().kind != jtEOF {
	}
	return lx.err
}

// Parse lexes and parses src.
func Parse(src string) (any, error) { return jsParse(src) }

// Compile compiles a parsed program on vm, as Run does before running it.
func Compile(vm *VM, body any) error {
	vm.allFuncs = vm.allFuncs[:0]
	_, err := compileProgram(vm, body.([]jsStmt))
	return err
}
