package jsvm

import (
	"errors"
	"fmt"
)

// jsParse parses a program (list of statements). The parser pulls tokens
// from the lexer as it goes; a lexing error anywhere in src is the error
// reported, even where the parser fails earlier.
func jsParse(src string) ([]jsStmt, error) {
	p := &jsParser{lx: jsLexer{src: src, line: 1}}
	p.tok = p.lx.next()
	base := len(p.stmts)
	var err error
	for err == nil && !p.at(jtEOF) {
		var s jsStmt
		if s, err = p.stmt(); err == nil {
			p.stmts = append(p.stmts, s)
		}
	}
	if err != nil {
		for p.lx.next().kind != jtEOF {
		}
	}
	if p.lx.err != nil {
		return nil, &syntaxError{p.lx.err}
	}
	if err != nil {
		return nil, &syntaxError{err}
	}
	return popList(&p.stmts, base), nil
}

// ErrJSSyntax matches (errors.Is) every error that rejects a program before
// it runs: lexing, parsing and compilation errors.
var ErrJSSyntax = errors.New("jsvm: syntax error")

// syntaxError types a load-time error without changing its message.
type syntaxError struct{ err error }

func (e *syntaxError) Error() string        { return e.err.Error() }
func (e *syntaxError) Unwrap() error        { return e.err }
func (e *syntaxError) Is(target error) bool { return target == ErrJSSyntax }

type jsParser struct {
	lx    jsLexer
	tok   jsTok // the current token
	depth int
	// stmts, exprs and names are stacks the lists under construction share:
	// a list is built on top and copied out at its exact length.
	stmts []jsStmt
	exprs []jsExpr
	names []string
	// The most frequent nodes come from slabs.
	idents  slab[eIdent]
	nums    slab[eNum]
	binarys slab[eBinary]
	assigns slab[eAssign]
	members slab[eMember]
	calls   slab[eCall]
	exprSts slab[sExpr]
}

// slab hands out zeroed values of T from shared chunks, one allocation per
// slabChunk values.
type slab[T any] struct{ free []T }

const slabChunk = 64

func (s *slab[T]) new() *T {
	if len(s.free) == 0 {
		s.free = make([]T, slabChunk)
	}
	v := &s.free[0]
	s.free = s.free[1:]
	return v
}

// maxNesting bounds the parse tree's depth, so that parsing, compiling and
// evaluating a program never recurse deeper than that.
const maxNesting = 1000

// nest enters one level of the parse tree; the caller restores p.depth.
func (p *jsParser) nest() error {
	p.depth++
	if p.depth > maxNesting {
		return fmt.Errorf("jsvm: line %d: nesting deeper than %d", p.tok.line, maxNesting)
	}
	return nil
}

func (p *jsParser) advance() { p.tok = p.lx.next() }

// peek returns the code of the token after the current one, lexing it on a
// copy of the lexer.
func (p *jsParser) peek() tokCode {
	lx := p.lx
	return lx.next().code
}

func (p *jsParser) at(k jsTokKind) bool { return p.tok.kind == k }

// is reports whether the current token is the punctuator or keyword c.
func (p *jsParser) is(c tokCode) bool { return p.tok.code == c }

func (p *jsParser) eat(c tokCode) bool {
	if p.tok.code == c {
		p.advance()
		return true
	}
	return false
}

func (p *jsParser) expect(c tokCode) error {
	if !p.eat(c) {
		return fmt.Errorf("jsvm: line %d: expected %q, got %q", p.tok.line, codeText[c], p.tok.text)
	}
	return nil
}

func (p *jsParser) ident() (string, error) {
	t := &p.tok
	if t.kind != jtIdent {
		return "", fmt.Errorf("jsvm: line %d: expected identifier, got %q", t.line, t.text)
	}
	name := t.text
	p.advance()
	return name, nil
}

// eatSemi consumes an optional statement terminator.
func (p *jsParser) eatSemi() { p.eat(pSemi) }

// popList pops the values above base off a stack as a list of their exact
// length (nil if none).
func popList[T any](stack *[]T, base int) []T {
	s := *stack
	if len(s) == base {
		return nil
	}
	out := make([]T, len(s)-base)
	copy(out, s[base:])
	clear(s[base:])
	*stack = s[:base]
	return out
}

// stmtsUntil parses statements up to the closing brace and consumes it;
// eof, if set, is the error for a body the source ends inside.
func (p *jsParser) stmtsUntil(eof string) ([]jsStmt, error) {
	base := len(p.stmts)
	for !p.is(pRBrace) {
		if eof != "" && p.at(jtEOF) {
			return nil, errors.New(eof)
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, s)
	}
	p.advance()
	return popList(&p.stmts, base), nil
}

func (p *jsParser) stmt() (jsStmt, error) {
	d := p.depth
	if err := p.nest(); err != nil {
		return nil, err
	}
	s, err := p.stmtBody()
	p.depth = d
	return s, err
}

func (p *jsParser) stmtBody() (jsStmt, error) {
	switch p.tok.code {
	case pLBrace:
		p.advance()
		body, err := p.stmtsUntil("jsvm: unexpected EOF in block")
		if err != nil {
			return nil, err
		}
		return &sBlock{body: body}, nil
	case pSemi:
		p.advance()
		return &sBlock{}, nil
	case kVar, kLet, kConst:
		p.advance()
		s, err := p.varDecl()
		if err != nil {
			return nil, err
		}
		p.eatSemi()
		return s, nil
	case kFunction:
		p.advance()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		params, body, err := p.funcRest()
		if err != nil {
			return nil, err
		}
		return &sFunc{name: name, params: params, body: body}, nil
	case kIf:
		p.advance()
		cond, err := p.parenExpr()
		if err != nil {
			return nil, err
		}
		then, err := p.stmt()
		if err != nil {
			return nil, err
		}
		st := &sIf{cond: cond, then: then}
		if p.eat(kElse) {
			st.els, err = p.stmt()
			if err != nil {
				return nil, err
			}
		}
		return st, nil
	case kFor:
		return p.forStmt()
	case kWhile:
		p.advance()
		cond, err := p.parenExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return &sWhile{cond: cond, body: body}, nil
	case kDo:
		p.advance()
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if !p.eat(kWhile) {
			return nil, fmt.Errorf("jsvm: line %d: expected while", p.tok.line)
		}
		cond, err := p.parenExpr()
		if err != nil {
			return nil, err
		}
		p.eatSemi()
		return &sWhile{cond: cond, body: body, post: true}, nil
	case kSwitch:
		return p.switchStmt()
	case kBreak:
		p.advance()
		s := &sBreak{label: p.label()}
		p.eatSemi()
		return s, nil
	case kContinue:
		p.advance()
		s := &sContinue{label: p.label()}
		p.eatSemi()
		return s, nil
	case kReturn:
		p.advance()
		if p.is(pSemi) || p.is(pRBrace) {
			p.eatSemi()
			return &sReturn{}, nil
		}
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		p.eatSemi()
		return &sReturn{x: x}, nil
	case kThrow:
		p.advance()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		p.eatSemi()
		return &sThrow{x: x}, nil
	case kTry:
		return p.tryStmt()
	}
	// Labeled statement: ident ':' stmt.
	if p.at(jtIdent) && p.peek() == pColon {
		label := p.tok.text
		p.advance()
		p.advance()
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return &sLabeled{label: label, body: body}, nil
	}
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	p.eatSemi()
	st := p.exprSts.new()
	st.x = x
	return st, nil
}

// label consumes the optional label of a break or continue.
func (p *jsParser) label() string {
	if !p.at(jtIdent) {
		return ""
	}
	l := p.tok.text
	p.advance()
	return l
}

// parenExpr parses `( expr )`.
func (p *jsParser) parenExpr() (jsExpr, error) {
	if err := p.expect(pLParen); err != nil {
		return nil, err
	}
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	return x, p.expect(pRParen)
}

func (p *jsParser) varDecl() (*sVar, error) {
	nbase, xbase := len(p.names), len(p.exprs)
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		p.names = append(p.names, name)
		var init jsExpr
		if p.eat(pAssign) {
			if init, err = p.assignExpr(); err != nil {
				return nil, err
			}
		}
		p.exprs = append(p.exprs, init)
		if !p.eat(pComma) {
			return &sVar{names: popList(&p.names, nbase), inits: popList(&p.exprs, xbase)}, nil
		}
	}
}

func (p *jsParser) funcRest() (params []string, body []jsStmt, err error) {
	if err := p.expect(pLParen); err != nil {
		return nil, nil, err
	}
	base := len(p.names)
	for !p.is(pRParen) {
		name, err := p.ident()
		if err != nil {
			return nil, nil, err
		}
		p.names = append(p.names, name)
		if !p.eat(pComma) {
			break
		}
	}
	params = popList(&p.names, base)
	if err := p.expect(pRParen); err != nil {
		return nil, nil, err
	}
	if err := p.expect(pLBrace); err != nil {
		return nil, nil, err
	}
	body, err = p.stmtsUntil("jsvm: unexpected EOF in function body")
	if err != nil {
		return nil, nil, err
	}
	return params, body, nil
}

func (p *jsParser) forStmt() (jsStmt, error) {
	p.advance() // for
	if err := p.expect(pLParen); err != nil {
		return nil, err
	}
	fs := &sFor{}
	if !p.is(pSemi) {
		if p.is(kVar) || p.is(kLet) || p.is(kConst) {
			p.advance()
			vd, err := p.varDecl()
			if err != nil {
				return nil, err
			}
			fs.init = vd
		} else {
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			fs.init = &sExpr{x: x}
		}
	}
	if err := p.expect(pSemi); err != nil {
		return nil, err
	}
	if !p.is(pSemi) {
		c, err := p.expr()
		if err != nil {
			return nil, err
		}
		fs.cond = c
	}
	if err := p.expect(pSemi); err != nil {
		return nil, err
	}
	if !p.is(pRParen) {
		post, err := p.expr()
		if err != nil {
			return nil, err
		}
		fs.post = post
	}
	if err := p.expect(pRParen); err != nil {
		return nil, err
	}
	body, err := p.stmt()
	if err != nil {
		return nil, err
	}
	fs.body = body
	return fs, nil
}

func (p *jsParser) switchStmt() (jsStmt, error) {
	p.advance() // switch
	tag, err := p.parenExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(pLBrace); err != nil {
		return nil, err
	}
	sw := &sSwitch{tag: tag, defaultI: -1}
	base := len(p.stmts)
	// endCase closes the case being read.
	endCase := func() {
		if len(sw.cases) > 0 {
			sw.cases[len(sw.cases)-1].body = popList(&p.stmts, base)
		}
	}
	for !p.is(pRBrace) {
		switch {
		case p.eat(kCase):
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(pColon); err != nil {
				return nil, err
			}
			endCase()
			sw.cases = append(sw.cases, jsSwitchCase{val: v})
		case p.eat(kDefault):
			if err := p.expect(pColon); err != nil {
				return nil, err
			}
			endCase()
			sw.defaultI = len(sw.cases)
			sw.cases = append(sw.cases, jsSwitchCase{})
		default:
			if len(sw.cases) == 0 {
				return nil, fmt.Errorf("jsvm: line %d: statement before first case", p.tok.line)
			}
			s, err := p.stmt()
			if err != nil {
				return nil, err
			}
			p.stmts = append(p.stmts, s)
		}
	}
	endCase()
	p.advance()
	return sw, nil
}

func (p *jsParser) tryStmt() (jsStmt, error) {
	p.advance() // try
	if err := p.expect(pLBrace); err != nil {
		return nil, err
	}
	st := &sTry{}
	var err error
	if st.body, err = p.stmtsUntil(""); err != nil {
		return nil, err
	}
	if p.eat(kCatch) {
		if p.eat(pLParen) {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.param = name
			if err := p.expect(pRParen); err != nil {
				return nil, err
			}
		}
		if err := p.expect(pLBrace); err != nil {
			return nil, err
		}
		if st.catch, err = p.stmtsUntil(""); err != nil {
			return nil, err
		}
	}
	if p.eat(kFinally) {
		if err := p.expect(pLBrace); err != nil {
			return nil, err
		}
		if st.finally, err = p.stmtsUntil(""); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// ---- expressions ----

func (p *jsParser) expr() (jsExpr, error) {
	x, err := p.assignExpr()
	if err != nil {
		return nil, err
	}
	for p.eat(pComma) {
		y, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		x = &eSeq{x: x, y: y}
	}
	return x, nil
}

// assignOp marks the assignment operators.
var assignOp = [numCodes]bool{
	pAssign: true, pAddAssign: true, pSubAssign: true, pMulAssign: true, pDivAssign: true,
	pModAssign: true, pAndAssign: true, pOrAssign: true, pXorAssign: true,
	pShlAssign: true, pShrAssign: true, pUShrAssign: true,
}

func (p *jsParser) assignExpr() (jsExpr, error) {
	d := p.depth
	if err := p.nest(); err != nil {
		return nil, err
	}
	lhs, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	if op := p.tok.code; assignOp[op] {
		p.advance()
		rhs, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		a := p.assigns.new()
		*a = eAssign{op: codeText[op], lhs: lhs, rhs: rhs}
		lhs = a
	}
	p.depth = d
	return lhs, nil
}

func (p *jsParser) condExpr() (jsExpr, error) {
	c, err := p.binExpr(1)
	if err != nil {
		return nil, err
	}
	if p.eat(pQuest) {
		t, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(pColon); err != nil {
			return nil, err
		}
		f, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		return &eCond{c: c, t: t, f: f}, nil
	}
	return c, nil
}

// binPrec is each binary operator's precedence; 0 for other tokens.
var binPrec = [numCodes]int8{
	pOrOr: 1, pAndAnd: 2, pOr: 3, pXor: 4, pAnd: 5,
	pEq: 6, pNe: 6, pSEq: 6, pSNe: 6,
	pLt: 7, pGt: 7, pLe: 7, pGe: 7,
	pShl: 8, pShr: 8, pUShr: 8,
	pPlus: 9, pMinus: 9,
	pStar: 10, pSlash: 10, pPercent: 10,
}

// binExpr parses a binary expression whose operators bind at least as
// tightly as minPrec (≥ 1).
func (p *jsParser) binExpr(minPrec int8) (jsExpr, error) {
	d := p.depth
	lhs, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		op := p.tok.code
		prec := binPrec[op]
		if prec == 0 || prec < minPrec {
			p.depth = d
			return lhs, nil
		}
		p.advance()
		if err := p.nest(); err != nil {
			return nil, err
		}
		rhs, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		if op == pAndAnd || op == pOrOr {
			lhs = &eLogical{op: codeText[op], x: lhs, y: rhs}
		} else {
			b := p.binarys.new()
			*b = eBinary{op: codeText[op], x: lhs, y: rhs}
			lhs = b
		}
	}
}

func (p *jsParser) unaryExpr() (jsExpr, error) {
	d := p.depth
	if err := p.nest(); err != nil {
		return nil, err
	}
	var x jsExpr
	var err error
	switch op := p.tok.code; op {
	case pMinus, pPlus, pNot, pTilde, pInc, pDec, kTypeof:
		p.advance()
		if x, err = p.unaryExpr(); err != nil {
			return nil, err
		}
		x = &eUnary{op: codeText[op], x: x}
	default:
		if x, err = p.callExpr(); err != nil {
			return nil, err
		}
		if op := p.tok.code; op == pInc || op == pDec {
			p.advance()
			x = &eUnary{op: codeText[op], x: x, postfix: true}
		}
	}
	p.depth = d
	return x, nil
}

func (p *jsParser) callExpr() (jsExpr, error) {
	d := p.depth
	var x jsExpr
	var err error
	if p.eat(kNew) {
		callee, err := p.memberOnly()
		if err != nil {
			return nil, err
		}
		var args []jsExpr
		if p.eat(pLParen) {
			if args, err = p.argList(); err != nil {
				return nil, err
			}
		}
		x = &eNew{callee: callee, args: args}
	} else if x, err = p.primary(); err != nil {
		return nil, err
	}
	for {
		if err := p.nest(); err != nil {
			return nil, err
		}
		switch p.tok.code {
		case pDot:
			p.advance()
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			m := p.members.new()
			*m = eMember{obj: x, name: name}
			x = m
		case pLBrack:
			p.advance()
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(pRBrack); err != nil {
				return nil, err
			}
			m := p.members.new()
			*m = eMember{obj: x, computed: idx}
			x = m
		case pLParen:
			p.advance()
			args, err := p.argList()
			if err != nil {
				return nil, err
			}
			c := p.calls.new()
			*c = eCall{callee: x, args: args}
			x = c
		default:
			p.depth = d
			return x, nil
		}
	}
}

// memberOnly parses member chains without call suffixes (for `new X.Y(...)`).
func (p *jsParser) memberOnly() (jsExpr, error) {
	d := p.depth
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.eat(pDot) {
		if err := p.nest(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		x = &eMember{obj: x, name: name}
	}
	p.depth = d
	return x, nil
}

// argList parses the rest of a call's arguments, the open paren consumed.
func (p *jsParser) argList() ([]jsExpr, error) {
	args, err := p.exprList(pRParen)
	if err != nil {
		return nil, err
	}
	return args, p.expect(pRParen)
}

// exprList parses comma-separated expressions up to (not including) end.
func (p *jsParser) exprList(end tokCode) ([]jsExpr, error) {
	base := len(p.exprs)
	for !p.is(end) {
		a, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		p.exprs = append(p.exprs, a)
		if !p.eat(pComma) {
			break
		}
	}
	return popList(&p.exprs, base), nil
}

func (p *jsParser) primary() (jsExpr, error) {
	d := p.depth
	if err := p.nest(); err != nil {
		return nil, err
	}
	x, err := p.primaryBody()
	p.depth = d
	return x, err
}

func (p *jsParser) primaryBody() (jsExpr, error) {
	t := &p.tok
	switch t.kind {
	case jtNumber:
		n := p.nums.new()
		n.v = t.num
		p.advance()
		return n, nil
	case jtString:
		s := t.text
		p.advance()
		return &eStr{v: s}, nil
	case jtIdent:
		id := p.idents.new()
		id.name = t.text
		p.advance()
		return id, nil
	}
	switch t.code {
	case kTrue:
		p.advance()
		return &eBool{v: true}, nil
	case kFalse:
		p.advance()
		return &eBool{v: false}, nil
	case kNull:
		p.advance()
		return &eNull{}, nil
	case kUndefined:
		p.advance()
		return &eUndefined{}, nil
	case kThis:
		p.advance()
		return &eThis{}, nil
	case kFunction:
		p.advance()
		name := p.label()
		params, body, err := p.funcRest()
		if err != nil {
			return nil, err
		}
		return &eFunc{name: name, params: params, body: body}, nil
	case pLParen:
		p.advance()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		return x, p.expect(pRParen)
	case pLBrack:
		p.advance()
		elems, err := p.exprList(pRBrack)
		if err != nil {
			return nil, err
		}
		if err := p.expect(pRBrack); err != nil {
			return nil, err
		}
		return &eArray{elems: elems}, nil
	case pLBrace:
		p.advance()
		return p.objectLit()
	}
	return nil, fmt.Errorf("jsvm: line %d: unexpected token %q", t.line, t.text)
}

// objectLit parses an object literal's keys and values, the open brace
// consumed.
func (p *jsParser) objectLit() (jsExpr, error) {
	nbase, xbase := len(p.names), len(p.exprs)
	for !p.is(pRBrace) {
		var key string
		switch kt := &p.tok; kt.kind {
		case jtIdent, jtKeyword, jtString:
			key = kt.text
		case jtNumber:
			key = formatNumber(kt.num)
		default:
			return nil, fmt.Errorf("jsvm: line %d: bad object key", kt.line)
		}
		p.advance()
		if err := p.expect(pColon); err != nil {
			return nil, err
		}
		v, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		p.names = append(p.names, key)
		p.exprs = append(p.exprs, v)
		if !p.eat(pComma) {
			break
		}
	}
	if err := p.expect(pRBrace); err != nil {
		return nil, err
	}
	return &eObject{keys: popList(&p.names, nbase), vals: popList(&p.exprs, xbase)}, nil
}
