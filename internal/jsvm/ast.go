package jsvm

// JavaScript AST. The parser produces these; the compiler in compile.go
// turns them into closure trees with statically resolved variable slots.

type jsStmt interface{ jsStmtNode() }

type jsExpr interface{ jsExprNode() }

// Statements.

type sVar struct {
	names []string
	inits []jsExpr // nil entries allowed
}

type sFunc struct {
	name   string
	params []string
	body   []jsStmt
	facts  *funcFacts // set by analyzeProgram
}

type sExpr struct{ x jsExpr }

type sIf struct {
	cond      jsExpr
	then, els jsStmt
}

type sBlock struct{ body []jsStmt }

type sFor struct {
	init       jsStmt // sVar or sExpr or nil
	cond, post jsExpr // may be nil
	body       jsStmt
}

type sWhile struct {
	cond jsExpr
	body jsStmt
	post bool // do-while
}

type sSwitch struct {
	tag      jsExpr
	cases    []jsSwitchCase
	defaultI int // index into cases order, -1 if none
}

type jsSwitchCase struct {
	val  jsExpr // nil for default
	body []jsStmt
}

type sBreak struct{ label string }
type sContinue struct{ label string }

// sLabeled wraps a statement with a label (targets for labeled break /
// continue, which the Cheerp-style JS backend emits for loop lowering).
type sLabeled struct {
	label string
	body  jsStmt
}
type sReturn struct{ x jsExpr } // may be nil
type sThrow struct{ x jsExpr }
type sTry struct {
	body    []jsStmt
	param   string
	catch   []jsStmt
	finally []jsStmt
}

func (*sVar) jsStmtNode()      {}
func (*sFunc) jsStmtNode()     {}
func (*sExpr) jsStmtNode()     {}
func (*sIf) jsStmtNode()       {}
func (*sBlock) jsStmtNode()    {}
func (*sFor) jsStmtNode()      {}
func (*sWhile) jsStmtNode()    {}
func (*sSwitch) jsStmtNode()   {}
func (*sBreak) jsStmtNode()    {}
func (*sLabeled) jsStmtNode()  {}
func (*sContinue) jsStmtNode() {}
func (*sReturn) jsStmtNode()   {}
func (*sThrow) jsStmtNode()    {}
func (*sTry) jsStmtNode()      {}

// Expressions.

type eNum struct{ v float64 }
type eStr struct{ v string }
type eBool struct{ v bool }
type eNull struct{}
type eUndefined struct{}
type eThis struct{}

type eIdent struct{ name string }

type eArray struct{ elems []jsExpr }

type eObject struct {
	keys []string
	vals []jsExpr
}

type eFunc struct {
	name   string
	params []string
	body   []jsStmt
	facts  *funcFacts // set by analyzeProgram
}

type eUnary struct {
	op      string
	x       jsExpr
	postfix bool
}

type eBinary struct {
	op   string
	x, y jsExpr
}

type eLogical struct {
	op   string // && or ||
	x, y jsExpr
}

type eAssign struct {
	op  string
	lhs jsExpr
	rhs jsExpr
}

type eCond struct{ c, t, f jsExpr }

type eCall struct {
	callee jsExpr
	args   []jsExpr
}

type eNew struct {
	callee jsExpr
	args   []jsExpr
}

type eMember struct {
	obj      jsExpr
	name     string // static access
	computed jsExpr // a[b]; nil for static
}

type eSeq struct{ x, y jsExpr }

func (*eNum) jsExprNode()       {}
func (*eStr) jsExprNode()       {}
func (*eBool) jsExprNode()      {}
func (*eNull) jsExprNode()      {}
func (*eUndefined) jsExprNode() {}
func (*eThis) jsExprNode()      {}
func (*eIdent) jsExprNode()     {}
func (*eArray) jsExprNode()     {}
func (*eObject) jsExprNode()    {}
func (*eFunc) jsExprNode()      {}
func (*eUnary) jsExprNode()     {}
func (*eBinary) jsExprNode()    {}
func (*eLogical) jsExprNode()   {}
func (*eAssign) jsExprNode()    {}
func (*eCond) jsExprNode()      {}
func (*eCall) jsExprNode()      {}
func (*eNew) jsExprNode()       {}
func (*eMember) jsExprNode()    {}
func (*eSeq) jsExprNode()       {}
