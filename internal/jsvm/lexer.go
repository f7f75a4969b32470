package jsvm

import (
	"fmt"
	"strconv"
	"unicode/utf8"
)

type jsTokKind uint8

const (
	jtEOF jsTokKind = iota
	jtIdent
	jtKeyword
	jtNumber
	jtString
	jtPunct
)

// tokCode names a punctuator or a keyword, so the parser tests a token with
// one integer compare; other tokens carry cNone.
type tokCode uint8

const (
	cNone tokCode = iota

	// Punctuators.
	pLParen     // (
	pRParen     // )
	pLBrack     // [
	pRBrack     // ]
	pLBrace     // {
	pRBrace     // }
	pSemi       // ;
	pComma      // ,
	pDot        // .
	pColon      // :
	pQuest      // ?
	pTilde      // ~
	pNot        // !
	pNe         // !=
	pSNe        // !==
	pAssign     // =
	pEq         // ==
	pSEq        // ===
	pArrow      // =>
	pPlus       // +
	pInc        // ++
	pAddAssign  // +=
	pMinus      // -
	pDec        // --
	pSubAssign  // -=
	pStar       // *
	pPow        // **
	pMulAssign  // *=
	pSlash      // /
	pDivAssign  // /=
	pPercent    // %
	pModAssign  // %=
	pAnd        // &
	pAndAnd     // &&
	pAndAssign  // &=
	pOr         // |
	pOrOr       // ||
	pOrAssign   // |=
	pXor        // ^
	pXorAssign  // ^=
	pLt         // <
	pLe         // <=
	pShl        // <<
	pShlAssign  // <<=
	pGt         // >
	pGe         // >=
	pShr        // >>
	pShrAssign  // >>=
	pUShr       // >>>
	pUShrAssign // >>>=

	// Keywords.
	kVar
	kLet
	kConst
	kFunction
	kReturn
	kIf
	kElse
	kFor
	kWhile
	kDo
	kBreak
	kContinue
	kSwitch
	kCase
	kDefault
	kNew
	kTypeof
	kTrue
	kFalse
	kNull
	kUndefined
	kThis
	kIn
	kOf
	kInstanceof
	kDelete
	kVoid
	kThrow
	kTry
	kCatch
	kFinally
	numCodes
)

// codeText is each punctuator's and keyword's source text, the token text
// the parser reports and the operator string the AST carries.
var codeText = [numCodes]string{
	pLParen: "(", pRParen: ")", pLBrack: "[", pRBrack: "]", pLBrace: "{", pRBrace: "}",
	pSemi: ";", pComma: ",", pDot: ".", pColon: ":", pQuest: "?", pTilde: "~",
	pNot: "!", pNe: "!=", pSNe: "!==", pAssign: "=", pEq: "==", pSEq: "===", pArrow: "=>",
	pPlus: "+", pInc: "++", pAddAssign: "+=", pMinus: "-", pDec: "--", pSubAssign: "-=",
	pStar: "*", pPow: "**", pMulAssign: "*=", pSlash: "/", pDivAssign: "/=",
	pPercent: "%", pModAssign: "%=", pAnd: "&", pAndAnd: "&&", pAndAssign: "&=",
	pOr: "|", pOrOr: "||", pOrAssign: "|=", pXor: "^", pXorAssign: "^=",
	pLt: "<", pLe: "<=", pShl: "<<", pShlAssign: "<<=",
	pGt: ">", pGe: ">=", pShr: ">>", pShrAssign: ">>=", pUShr: ">>>", pUShrAssign: ">>>=",

	kVar: "var", kLet: "let", kConst: "const", kFunction: "function", kReturn: "return",
	kIf: "if", kElse: "else", kFor: "for", kWhile: "while", kDo: "do",
	kBreak: "break", kContinue: "continue", kSwitch: "switch", kCase: "case",
	kDefault: "default", kNew: "new", kTypeof: "typeof", kTrue: "true", kFalse: "false",
	kNull: "null", kUndefined: "undefined", kThis: "this", kIn: "in", kOf: "of",
	kInstanceof: "instanceof", kDelete: "delete", kVoid: "void", kThrow: "throw",
	kTry: "try", kCatch: "catch", kFinally: "finally",
}

// keywordCodes maps each keyword's text to its code.
var keywordCodes = func() map[string]tokCode {
	m := make(map[string]tokCode, numCodes-kVar)
	for c := kVar; c < numCodes; c++ {
		m[codeText[c]] = c
	}
	return m
}()

type jsTok struct {
	kind jsTokKind
	code tokCode
	line int32
	text string
	num  float64
}

// jsLexer produces tokens on demand, so no token list is ever stored. A
// lexing error ends the stream: next returns EOF from then on and err holds
// the error, which takes precedence over any parse error (see jsParse).
type jsLexer struct {
	src  string
	pos  int
	line int32
	err  error
	buf  []byte // decoded text of a string literal with escapes
}

// at returns the byte k past the current position, or 0 past the end.
func (lx *jsLexer) at(k int) byte {
	if lx.pos+k < len(lx.src) {
		return lx.src[lx.pos+k]
	}
	return 0
}

// next returns the next token.
func (lx *jsLexer) next() jsTok {
	src := lx.src
	for lx.err == nil && lx.pos < len(src) {
		c := src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '/' && lx.at(1) == '/':
			for lx.pos < len(src) && src[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.at(1) == '*':
			lx.blockComment()
		case isJSIdentStart(c):
			start := lx.pos
			for lx.pos < len(src) && isJSIdentPart(src[lx.pos]) {
				lx.pos++
			}
			text := src[start:lx.pos]
			if k := keywordCodes[text]; k != cNone {
				return jsTok{kind: jtKeyword, code: k, text: text, line: lx.line}
			}
			return jsTok{kind: jtIdent, text: text, line: lx.line}
		case isDigit(c) || c == '.' && isDigit(lx.at(1)):
			return lx.number()
		case c == '"' || c == '\'':
			return lx.string(c)
		default:
			code, n := lx.punct(c)
			if code == cNone {
				lx.fail(fmt.Errorf("jsvm: line %d: unexpected character %q", lx.line, c))
				break
			}
			lx.pos += n
			return jsTok{kind: jtPunct, code: code, text: codeText[code], line: lx.line}
		}
	}
	return jsTok{kind: jtEOF, line: lx.line}
}

// fail ends the token stream with err.
func (lx *jsLexer) fail(err error) {
	lx.err = err
	lx.pos = len(lx.src)
}

func (lx *jsLexer) blockComment() {
	src := lx.src
	i := lx.pos + 2
	for i+1 < len(src) && !(src[i] == '*' && src[i+1] == '/') {
		if src[i] == '\n' {
			lx.line++
		}
		i++
	}
	if i+1 >= len(src) {
		lx.fail(fmt.Errorf("jsvm: line %d: unterminated comment", lx.line))
		return
	}
	lx.pos = i + 2
}

// punct returns the longest punctuator starting at the current position
// (its first byte c) and its length, or cNone.
func (lx *jsLexer) punct(c byte) (tokCode, int) {
	c1 := lx.at(1)
	switch c {
	case '(':
		return pLParen, 1
	case ')':
		return pRParen, 1
	case '[':
		return pLBrack, 1
	case ']':
		return pRBrack, 1
	case '{':
		return pLBrace, 1
	case '}':
		return pRBrace, 1
	case ';':
		return pSemi, 1
	case ',':
		return pComma, 1
	case '.':
		return pDot, 1
	case ':':
		return pColon, 1
	case '?':
		return pQuest, 1
	case '~':
		return pTilde, 1
	case '!':
		if c1 == '=' {
			if lx.at(2) == '=' {
				return pSNe, 3
			}
			return pNe, 2
		}
		return pNot, 1
	case '=':
		switch c1 {
		case '=':
			if lx.at(2) == '=' {
				return pSEq, 3
			}
			return pEq, 2
		case '>':
			return pArrow, 2
		}
		return pAssign, 1
	case '+':
		return pick(c1, pPlus, pInc, pAddAssign)
	case '-':
		return pick(c1, pMinus, pDec, pSubAssign)
	case '*':
		return pick(c1, pStar, pPow, pMulAssign)
	case '/':
		return pick(c1, pSlash, cNone, pDivAssign)
	case '%':
		return pick(c1, pPercent, cNone, pModAssign)
	case '&':
		return pick(c1, pAnd, pAndAnd, pAndAssign)
	case '|':
		return pick(c1, pOr, pOrOr, pOrAssign)
	case '^':
		return pick(c1, pXor, cNone, pXorAssign)
	case '<':
		if c1 == '<' {
			if lx.at(2) == '=' {
				return pShlAssign, 3
			}
			return pShl, 2
		}
		return pick(c1, pLt, cNone, pLe)
	case '>':
		if c1 == '>' {
			switch lx.at(2) {
			case '>':
				if lx.at(3) == '=' {
					return pUShrAssign, 4
				}
				return pUShr, 3
			case '=':
				return pShrAssign, 3
			}
			return pShr, 2
		}
		return pick(c1, pGt, cNone, pGe)
	}
	return cNone, 0
}

// pick resolves an operator character c that may be doubled (cc, code
// twice) or followed by '=' (c=, code assign), given the next byte c1.
func pick(c1 byte, single, twice, assign tokCode) (tokCode, int) {
	switch {
	case c1 == '=' && assign != cNone:
		return assign, 2
	case twice != cNone && c1 == codeText[single][0]:
		return twice, 2
	}
	return single, 1
}

func (lx *jsLexer) number() jsTok {
	src := lx.src
	start := lx.pos
	i := start
	if src[i] == '0' && (lx.at(1) == 'x' || lx.at(1) == 'X') {
		i += 2
		for i < len(src) && isHex(src[i]) {
			i++
		}
		lx.pos = i
		v, err := strconv.ParseUint(src[start+2:i], 16, 64)
		if err != nil {
			lx.fail(fmt.Errorf("jsvm: line %d: bad hex literal", lx.line))
			return jsTok{kind: jtEOF, line: lx.line}
		}
		return jsTok{kind: jtNumber, num: float64(v), text: src[start:i], line: lx.line}
	}
	// A run of at most 15 digits is an integer below 2^53: exact without
	// ParseFloat.
	v := 0.0
	for i < len(src) && isDigit(src[i]) {
		v = v*10 + float64(src[i]-'0')
		i++
	}
	plain := i-start <= 15
	for i < len(src) && (isDigit(src[i]) || src[i] == '.') {
		plain = false
		i++
	}
	if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
		plain = false
		i++
		if i < len(src) && (src[i] == '+' || src[i] == '-') {
			i++
		}
		for i < len(src) && isDigit(src[i]) {
			i++
		}
	}
	lx.pos = i
	text := src[start:i]
	if !plain {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			lx.fail(fmt.Errorf("jsvm: line %d: bad number %q", lx.line, text))
			return jsTok{kind: jtEOF, line: lx.line}
		}
		v = f
	}
	return jsTok{kind: jtNumber, num: v, text: text, line: lx.line}
}

// string lexes a string literal opened by quote. Its token carries the line
// the literal ends on.
func (lx *jsLexer) string(quote byte) jsTok {
	src := lx.src
	i := lx.pos + 1
	start := i
	for i < len(src) && src[i] != quote && src[i] != '\\' {
		if src[i] == '\n' {
			lx.line++
		}
		i++
	}
	if i < len(src) && src[i] == quote {
		lx.pos = i + 1
		return jsTok{kind: jtString, text: src[start:i], line: lx.line}
	}
	// An escape: decode from here on.
	b := append(lx.buf[:0], src[start:i]...)
	for {
		if i >= len(src) {
			lx.buf = b
			lx.fail(fmt.Errorf("jsvm: line %d: unterminated string", lx.line))
			return jsTok{kind: jtEOF, line: lx.line}
		}
		c := src[i]
		if c == quote {
			i++
			break
		}
		if c == '\\' && i+1 < len(src) {
			i++
			switch e := src[i]; e {
			case 'n':
				b = append(b, '\n')
			case 't':
				b = append(b, '\t')
			case 'r':
				b = append(b, '\r')
			case '0':
				b = append(b, 0)
			case 'u':
				// \uXXXX
				if i+4 < len(src) {
					if v, err := strconv.ParseUint(src[i+1:i+5], 16, 32); err == nil {
						b = utf8.AppendRune(b, rune(v))
						i += 4
					}
				}
			default:
				b = append(b, e)
			}
			i++
			continue
		}
		if c == '\n' {
			lx.line++
		}
		b = append(b, c)
		i++
	}
	lx.pos = i
	lx.buf = b
	return jsTok{kind: jtString, text: string(b), line: lx.line}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isJSIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isJSIdentPart(c byte) bool {
	return isJSIdentStart(c) || isDigit(c)
}

func isHex(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}
