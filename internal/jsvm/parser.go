package jsvm

import (
	"errors"
	"fmt"
)

// jsParse parses a program (list of statements).
func jsParse(src string) ([]jsStmt, error) {
	toks, err := jsLex(src)
	if err != nil {
		return nil, &syntaxError{err}
	}
	p := &jsParser{toks: toks}
	var body []jsStmt
	for !p.at(jtEOF) {
		s, err := p.stmt()
		if err != nil {
			return nil, &syntaxError{err}
		}
		body = append(body, s)
	}
	return body, nil
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
	toks  []jsTok
	pos   int
	depth int
}

// maxNesting bounds the parse tree's depth, so that parsing, compiling and
// evaluating a program never recurse deeper than that.
const maxNesting = 1000

// nest enters one level of the parse tree; the caller restores p.depth.
func (p *jsParser) nest() error {
	p.depth++
	if p.depth > maxNesting {
		return fmt.Errorf("jsvm: line %d: nesting deeper than %d", p.cur().line, maxNesting)
	}
	return nil
}

func (p *jsParser) cur() jsTok          { return p.toks[p.pos] }
func (p *jsParser) at(k jsTokKind) bool { return p.cur().kind == k }

func (p *jsParser) atP(s string) bool {
	return p.cur().kind == jtPunct && p.cur().text == s
}

func (p *jsParser) atKw(s string) bool {
	return p.cur().kind == jtKeyword && p.cur().text == s
}

func (p *jsParser) eatP(s string) bool {
	if p.atP(s) {
		p.pos++
		return true
	}
	return false
}

func (p *jsParser) eatKw(s string) bool {
	if p.atKw(s) {
		p.pos++
		return true
	}
	return false
}

func (p *jsParser) expectP(s string) error {
	if !p.eatP(s) {
		t := p.cur()
		return fmt.Errorf("jsvm: line %d: expected %q, got %q", t.line, s, t.text)
	}
	return nil
}

func (p *jsParser) ident() (string, error) {
	t := p.cur()
	if t.kind != jtIdent {
		return "", fmt.Errorf("jsvm: line %d: expected identifier, got %q", t.line, t.text)
	}
	p.pos++
	return t.text, nil
}

// eatSemi consumes an optional statement terminator.
func (p *jsParser) eatSemi() { p.eatP(";") }

func (p *jsParser) stmt() (jsStmt, error) {
	defer func(d int) { p.depth = d }(p.depth)
	if err := p.nest(); err != nil {
		return nil, err
	}
	t := p.cur()
	switch {
	case p.atP("{"):
		p.pos++
		var body []jsStmt
		for !p.atP("}") {
			if p.at(jtEOF) {
				return nil, fmt.Errorf("jsvm: unexpected EOF in block")
			}
			s, err := p.stmt()
			if err != nil {
				return nil, err
			}
			body = append(body, s)
		}
		p.pos++
		return &sBlock{body: body}, nil
	case p.atP(";"):
		p.pos++
		return &sBlock{}, nil
	case p.atKw("var"), p.atKw("let"), p.atKw("const"):
		p.pos++
		s, err := p.varDecl()
		if err != nil {
			return nil, err
		}
		p.eatSemi()
		return s, nil
	case p.atKw("function"):
		p.pos++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		params, body, err := p.funcRest()
		if err != nil {
			return nil, err
		}
		return &sFunc{name: name, params: params, body: body}, nil
	case p.atKw("if"):
		p.pos++
		if err := p.expectP("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectP(")"); err != nil {
			return nil, err
		}
		then, err := p.stmt()
		if err != nil {
			return nil, err
		}
		st := &sIf{cond: cond, then: then}
		if p.eatKw("else") {
			st.els, err = p.stmt()
			if err != nil {
				return nil, err
			}
		}
		return st, nil
	case p.atKw("for"):
		return p.forStmt()
	case p.atKw("while"):
		p.pos++
		if err := p.expectP("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectP(")"); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return &sWhile{cond: cond, body: body}, nil
	case p.atKw("do"):
		p.pos++
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if !p.eatKw("while") {
			return nil, fmt.Errorf("jsvm: line %d: expected while", p.cur().line)
		}
		if err := p.expectP("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectP(")"); err != nil {
			return nil, err
		}
		p.eatSemi()
		return &sWhile{cond: cond, body: body, post: true}, nil
	case p.atKw("switch"):
		return p.switchStmt()
	case p.atKw("break"):
		p.pos++
		lbl := ""
		if p.at(jtIdent) {
			lbl = p.cur().text
			p.pos++
		}
		p.eatSemi()
		return &sBreak{label: lbl}, nil
	case p.atKw("continue"):
		p.pos++
		lbl := ""
		if p.at(jtIdent) {
			lbl = p.cur().text
			p.pos++
		}
		p.eatSemi()
		return &sContinue{label: lbl}, nil
	case p.atKw("return"):
		p.pos++
		if p.atP(";") || p.atP("}") {
			p.eatSemi()
			return &sReturn{}, nil
		}
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		p.eatSemi()
		return &sReturn{x: x}, nil
	case p.atKw("throw"):
		p.pos++
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		p.eatSemi()
		return &sThrow{x: x}, nil
	case p.atKw("try"):
		return p.tryStmt()
	}
	// Labeled statement: ident ':' stmt.
	if t.kind == jtIdent && p.toks[p.pos+1].kind == jtPunct && p.toks[p.pos+1].text == ":" {
		label := t.text
		p.pos += 2
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
	return &sExpr{x: x}, nil
}

func (p *jsParser) varDecl() (*sVar, error) {
	s := &sVar{}
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		s.names = append(s.names, name)
		if p.eatP("=") {
			init, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			s.inits = append(s.inits, init)
		} else {
			s.inits = append(s.inits, nil)
		}
		if !p.eatP(",") {
			return s, nil
		}
	}
}

func (p *jsParser) funcRest() (params []string, body []jsStmt, err error) {
	if err := p.expectP("("); err != nil {
		return nil, nil, err
	}
	for !p.atP(")") {
		name, err := p.ident()
		if err != nil {
			return nil, nil, err
		}
		params = append(params, name)
		if !p.eatP(",") {
			break
		}
	}
	if err := p.expectP(")"); err != nil {
		return nil, nil, err
	}
	if err := p.expectP("{"); err != nil {
		return nil, nil, err
	}
	for !p.atP("}") {
		if p.at(jtEOF) {
			return nil, nil, fmt.Errorf("jsvm: unexpected EOF in function body")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, nil, err
		}
		body = append(body, s)
	}
	p.pos++
	return params, body, nil
}

func (p *jsParser) forStmt() (jsStmt, error) {
	p.pos++ // for
	if err := p.expectP("("); err != nil {
		return nil, err
	}
	fs := &sFor{}
	if !p.atP(";") {
		if p.atKw("var") || p.atKw("let") || p.atKw("const") {
			p.pos++
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
	if err := p.expectP(";"); err != nil {
		return nil, err
	}
	if !p.atP(";") {
		c, err := p.expr()
		if err != nil {
			return nil, err
		}
		fs.cond = c
	}
	if err := p.expectP(";"); err != nil {
		return nil, err
	}
	if !p.atP(")") {
		post, err := p.expr()
		if err != nil {
			return nil, err
		}
		fs.post = post
	}
	if err := p.expectP(")"); err != nil {
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
	p.pos++ // switch
	if err := p.expectP("("); err != nil {
		return nil, err
	}
	tag, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectP(")"); err != nil {
		return nil, err
	}
	if err := p.expectP("{"); err != nil {
		return nil, err
	}
	sw := &sSwitch{tag: tag, defaultI: -1}
	for !p.atP("}") {
		switch {
		case p.eatKw("case"):
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectP(":"); err != nil {
				return nil, err
			}
			sw.cases = append(sw.cases, jsSwitchCase{val: v})
		case p.eatKw("default"):
			if err := p.expectP(":"); err != nil {
				return nil, err
			}
			sw.defaultI = len(sw.cases)
			sw.cases = append(sw.cases, jsSwitchCase{})
		default:
			if len(sw.cases) == 0 {
				return nil, fmt.Errorf("jsvm: line %d: statement before first case", p.cur().line)
			}
			s, err := p.stmt()
			if err != nil {
				return nil, err
			}
			sw.cases[len(sw.cases)-1].body = append(sw.cases[len(sw.cases)-1].body, s)
		}
	}
	p.pos++
	return sw, nil
}

func (p *jsParser) tryStmt() (jsStmt, error) {
	p.pos++ // try
	if err := p.expectP("{"); err != nil {
		return nil, err
	}
	st := &sTry{}
	for !p.atP("}") {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		st.body = append(st.body, s)
	}
	p.pos++
	if p.eatKw("catch") {
		if p.eatP("(") {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.param = name
			if err := p.expectP(")"); err != nil {
				return nil, err
			}
		}
		if err := p.expectP("{"); err != nil {
			return nil, err
		}
		for !p.atP("}") {
			s, err := p.stmt()
			if err != nil {
				return nil, err
			}
			st.catch = append(st.catch, s)
		}
		p.pos++
	}
	if p.eatKw("finally") {
		if err := p.expectP("{"); err != nil {
			return nil, err
		}
		for !p.atP("}") {
			s, err := p.stmt()
			if err != nil {
				return nil, err
			}
			st.finally = append(st.finally, s)
		}
		p.pos++
	}
	return st, nil
}

// ---- expressions ----

func (p *jsParser) expr() (jsExpr, error) {
	x, err := p.assignExpr()
	if err != nil {
		return nil, err
	}
	for p.atP(",") {
		p.pos++
		y, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		x = &eSeq{x: x, y: y}
	}
	return x, nil
}

func (p *jsParser) assignExpr() (jsExpr, error) {
	defer func(d int) { p.depth = d }(p.depth)
	if err := p.nest(); err != nil {
		return nil, err
	}
	lhs, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == jtPunct {
		op := p.cur().text
		switch op {
		case "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>=":
			p.pos++
			rhs, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			return &eAssign{op: op, lhs: lhs, rhs: rhs}, nil
		}
	}
	return lhs, nil
}

func (p *jsParser) condExpr() (jsExpr, error) {
	c, err := p.binExpr(0)
	if err != nil {
		return nil, err
	}
	if p.eatP("?") {
		t, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectP(":"); err != nil {
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

var jsBinPrec = map[string]int{
	"||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6, "===": 6, "!==": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8, ">>>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *jsParser) binExpr(minPrec int) (jsExpr, error) {
	defer func(d int) { p.depth = d }(p.depth)
	lhs, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != jtPunct {
			return lhs, nil
		}
		prec, ok := jsBinPrec[t.text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.pos++
		if err := p.nest(); err != nil {
			return nil, err
		}
		rhs, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		if t.text == "&&" || t.text == "||" {
			lhs = &eLogical{op: t.text, x: lhs, y: rhs}
		} else {
			lhs = &eBinary{op: t.text, x: lhs, y: rhs}
		}
	}
}

func (p *jsParser) unaryExpr() (jsExpr, error) {
	defer func(d int) { p.depth = d }(p.depth)
	if err := p.nest(); err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind == jtPunct {
		switch t.text {
		case "-", "+", "!", "~":
			p.pos++
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			return &eUnary{op: t.text, x: x}, nil
		case "++", "--":
			p.pos++
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			return &eUnary{op: t.text, x: x}, nil
		}
	}
	if t.kind == jtKeyword && t.text == "typeof" {
		p.pos++
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &eUnary{op: "typeof", x: x}, nil
	}
	return p.postfixExpr()
}

func (p *jsParser) postfixExpr() (jsExpr, error) {
	x, err := p.callExpr()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind == jtPunct && (t.text == "++" || t.text == "--") {
		p.pos++
		return &eUnary{op: t.text, x: x, postfix: true}, nil
	}
	return x, nil
}

func (p *jsParser) callExpr() (jsExpr, error) {
	defer func(d int) { p.depth = d }(p.depth)
	var x jsExpr
	var err error
	if p.atKw("new") {
		p.pos++
		callee, err := p.memberOnly()
		if err != nil {
			return nil, err
		}
		var args []jsExpr
		if p.eatP("(") {
			args, err = p.argList()
			if err != nil {
				return nil, err
			}
		}
		x = &eNew{callee: callee, args: args}
	} else {
		x, err = p.primary()
		if err != nil {
			return nil, err
		}
	}
	for {
		if err := p.nest(); err != nil {
			return nil, err
		}
		switch {
		case p.eatP("."):
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			x = &eMember{obj: x, name: name}
		case p.eatP("["):
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectP("]"); err != nil {
				return nil, err
			}
			x = &eMember{obj: x, computed: idx}
		case p.eatP("("):
			args, err := p.argList()
			if err != nil {
				return nil, err
			}
			x = &eCall{callee: x, args: args}
		default:
			return x, nil
		}
	}
}

// memberOnly parses member chains without call suffixes (for `new X.Y(...)`).
func (p *jsParser) memberOnly() (jsExpr, error) {
	defer func(d int) { p.depth = d }(p.depth)
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.eatP(".") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		x = &eMember{obj: x, name: name}
	}
	return x, nil
}

func (p *jsParser) argList() ([]jsExpr, error) {
	var args []jsExpr
	for !p.atP(")") {
		a, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.eatP(",") {
			break
		}
	}
	if err := p.expectP(")"); err != nil {
		return nil, err
	}
	return args, nil
}

func (p *jsParser) primary() (jsExpr, error) {
	defer func(d int) { p.depth = d }(p.depth)
	if err := p.nest(); err != nil {
		return nil, err
	}
	t := p.cur()
	switch t.kind {
	case jtNumber:
		p.pos++
		return &eNum{v: t.num}, nil
	case jtString:
		p.pos++
		return &eStr{v: t.text}, nil
	case jtIdent:
		p.pos++
		return &eIdent{name: t.text}, nil
	case jtKeyword:
		switch t.text {
		case "true":
			p.pos++
			return &eBool{v: true}, nil
		case "false":
			p.pos++
			return &eBool{v: false}, nil
		case "null":
			p.pos++
			return &eNull{}, nil
		case "undefined":
			p.pos++
			return &eUndefined{}, nil
		case "this":
			p.pos++
			return &eThis{}, nil
		case "function":
			p.pos++
			name := ""
			if p.at(jtIdent) {
				name = p.cur().text
				p.pos++
			}
			params, body, err := p.funcRest()
			if err != nil {
				return nil, err
			}
			return &eFunc{name: name, params: params, body: body}, nil
		}
	case jtPunct:
		switch t.text {
		case "(":
			p.pos++
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			return x, p.expectP(")")
		case "[":
			p.pos++
			var elems []jsExpr
			for !p.atP("]") {
				e, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
				if !p.eatP(",") {
					break
				}
			}
			if err := p.expectP("]"); err != nil {
				return nil, err
			}
			return &eArray{elems: elems}, nil
		case "{":
			p.pos++
			obj := &eObject{}
			for !p.atP("}") {
				var key string
				kt := p.cur()
				switch kt.kind {
				case jtIdent, jtKeyword, jtString:
					key = kt.text
					p.pos++
				case jtNumber:
					key = formatNumber(kt.num)
					p.pos++
				default:
					return nil, fmt.Errorf("jsvm: line %d: bad object key", kt.line)
				}
				if err := p.expectP(":"); err != nil {
					return nil, err
				}
				v, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				obj.keys = append(obj.keys, key)
				obj.vals = append(obj.vals, v)
				if !p.eatP(",") {
					break
				}
			}
			if err := p.expectP("}"); err != nil {
				return nil, err
			}
			return obj, nil
		}
	}
	return nil, fmt.Errorf("jsvm: line %d: unexpected token %q", t.line, t.text)
}
