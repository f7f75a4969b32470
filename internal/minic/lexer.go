package minic

import (
	"strconv"
	"strings"
)

// Lex tokenizes preprocessed source.
func Lex(src string) ([]Token, error) {
	lx := &lexer{src: src, line: 1, col: 1}
	// The kernels' C runs 2.2 to 3.6 bytes per token: one allocation
	// holds the stream.
	toks := make([]Token, 0, len(src)/2+1)
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func (lx *lexer) peekAt(off int) byte {
	if lx.pos+off < len(lx.src) {
		return lx.src[lx.pos+off]
	}
	return 0
}

func (lx *lexer) peek() byte { return lx.peekAt(0) }

func (lx *lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peekAt(1) == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peekAt(1) == '*':
			startLine, startCol := lx.line, lx.col
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.peek() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return errf(startLine, startCol, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// punctAt returns the longest punctuator s starts with, or "".
func punctAt(s string) string {
	var c1, c2 byte
	if len(s) > 1 {
		c1 = s[1]
	}
	if len(s) > 2 {
		c2 = s[2]
	}
	switch c := s[0]; c {
	case '(', ')', '{', '}', '[', ']', ';', ',', '?', ':', '~':
		return s[:1]
	case '.':
		if c1 == '.' && c2 == '.' {
			return s[:3]
		}
		return s[:1]
	case '<', '>': // << <<= <= and >> >>= >=
		if c1 == c && c2 == '=' {
			return s[:3]
		}
		if c1 == c || c1 == '=' {
			return s[:2]
		}
		return s[:1]
	case '-': // -> -- -=
		if c1 == '>' || c1 == '-' || c1 == '=' {
			return s[:2]
		}
		return s[:1]
	case '+', '&', '|': // ++ += && &= || |=
		if c1 == c || c1 == '=' {
			return s[:2]
		}
		return s[:1]
	case '*', '/', '%', '^', '=', '!': // *= /= %= ^= == !=
		if c1 == '=' {
			return s[:2]
		}
		return s[:1]
	}
	return ""
}

func (lx *lexer) next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	line, col := lx.line, lx.col
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Line: line, Col: col}, nil
	}
	c := lx.peek()

	switch {
	case isIdentStart(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentPart(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		kind := TokIdent
		if keywords[text] {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Line: line, Col: col}, nil

	case isDigit(c) || (c == '.' && isDigit(lx.peekAt(1))):
		return lx.lexNumber(line, col)

	case c == '\'':
		return lx.lexChar(line, col)

	case c == '"':
		return lx.lexString(line, col)
	}

	if p := punctAt(lx.src[lx.pos:]); p != "" {
		lx.pos += len(p) // no newline inside
		lx.col += len(p)
		return Token{Kind: TokPunct, Text: p, Line: line, Col: col}, nil
	}
	return Token{}, errf(line, col, "unexpected character %q", c)
}

func (lx *lexer) lexNumber(line, col int) (Token, error) {
	start := lx.pos
	isFloat := false
	if lx.peek() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		lx.advance()
		lx.advance()
		for lx.pos < len(lx.src) && isHexDigit(lx.peek()) {
			lx.advance()
		}
	} else {
		for lx.pos < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
		if lx.pos < len(lx.src) && lx.peek() == '.' {
			isFloat = true
			lx.advance()
			for lx.pos < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
		if lx.pos < len(lx.src) && (lx.peek() == 'e' || lx.peek() == 'E') {
			save := lx.pos
			lx.advance()
			if lx.peek() == '+' || lx.peek() == '-' {
				lx.advance()
			}
			if isDigit(lx.peek()) {
				isFloat = true
				for lx.pos < len(lx.src) && isDigit(lx.peek()) {
					lx.advance()
				}
			} else {
				lx.pos = save
			}
		}
	}
	text := lx.src[start:lx.pos]
	// Suffixes: u, l, ul, ll, ull, f (case-insensitive).
	sufStart := lx.pos
	for lx.pos < len(lx.src) {
		s := lx.peek()
		if s == 'u' || s == 'U' || s == 'l' || s == 'L' || s == 'f' || s == 'F' {
			if (s == 'f' || s == 'F') && !isFloat && !strings.Contains(text, ".") {
				break // 'f' on an integer would be a hex-ish confusion; stop
			}
			lx.advance()
		} else {
			break
		}
	}
	suffix := strings.ToLower(lx.src[sufStart:lx.pos])
	if strings.Contains(suffix, "f") {
		isFloat = true
	}
	tok := Token{Line: line, Col: col, Text: text + suffix}
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Token{}, errf(line, col, "bad float literal %q", text)
		}
		tok.Kind = TokFloatLit
		tok.FloatVal = f
		tok.IsFloat = true
		return tok, nil
	}
	var v uint64
	var err error
	if strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X") {
		v, err = strconv.ParseUint(text[2:], 16, 64)
	} else if len(text) > 1 && text[0] == '0' {
		v, err = strconv.ParseUint(text[1:], 8, 64)
	} else {
		v, err = strconv.ParseUint(text, 10, 64)
	}
	if err != nil {
		return Token{}, errf(line, col, "bad integer literal %q", text)
	}
	tok.Kind = TokIntLit
	tok.IntVal = int64(v)
	return tok, nil
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (lx *lexer) lexEscape(line, col int) (byte, error) {
	c := lx.advance()
	if c != '\\' {
		return c, nil
	}
	if lx.pos >= len(lx.src) {
		return 0, errf(line, col, "unterminated escape")
	}
	e := lx.advance()
	switch e {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\', '\'', '"':
		return e, nil
	case 'x':
		v := 0
		for lx.pos < len(lx.src) && isHexDigit(lx.peek()) {
			d := lx.advance()
			v = v*16 + hexVal(d)
		}
		return byte(v), nil
	}
	return 0, errf(line, col, "unknown escape \\%c", e)
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}

func (lx *lexer) lexChar(line, col int) (Token, error) {
	lx.advance() // opening quote
	if lx.pos >= len(lx.src) {
		return Token{}, errf(line, col, "unterminated char literal")
	}
	v, err := lx.lexEscape(line, col)
	if err != nil {
		return Token{}, err
	}
	if lx.pos >= len(lx.src) || lx.peek() != '\'' {
		return Token{}, errf(line, col, "unterminated char literal")
	}
	lx.advance()
	return Token{Kind: TokCharLit, Text: string(v), IntVal: int64(v), Line: line, Col: col}, nil
}

func (lx *lexer) lexString(line, col int) (Token, error) {
	lx.advance() // opening quote
	var sb strings.Builder
	for {
		if lx.pos >= len(lx.src) {
			return Token{}, errf(line, col, "unterminated string literal")
		}
		if lx.peek() == '"' {
			lx.advance()
			break
		}
		v, err := lx.lexEscape(line, col)
		if err != nil {
			return Token{}, err
		}
		sb.WriteByte(v)
	}
	return Token{Kind: TokStrLit, Text: sb.String(), Line: line, Col: col}, nil
}
