package minic

import (
	"fmt"
	"strings"
)

// Preprocess handles the directive subset the benchmark suites need:
// object-like #define, -D style external definitions (the study uses them to
// select input sizes, §3.2), #undef, #ifdef/#ifndef/#else/#endif, and
// #include/#pragma (ignored). It returns the token stream with macros
// expanded, ready for the parser.
func Preprocess(src string, defines map[string]string) ([]Token, error) {
	macros := map[string][]Token{}
	for name, val := range defines {
		toks, err := Lex(val)
		if err != nil {
			return nil, fmt.Errorf("minic: bad -D%s=%s: %w", name, val, err)
		}
		macros[name] = toks[:len(toks)-1] // strip EOF
	}

	var kept []string
	// condStack: each entry is whether the current region is active.
	condStack := []bool{true}
	active := func() bool {
		for _, a := range condStack {
			if !a {
				return false
			}
		}
		return true
	}
	for lineNo, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "#") {
			if active() {
				kept = append(kept, line)
			} else {
				kept = append(kept, "")
			}
			continue
		}
		kept = append(kept, "") // keep line numbering aligned
		directive := strings.TrimSpace(trimmed[1:])
		fields := strings.Fields(directive)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "include", "pragma":
			// No file system: headers are modeled by builtins.
		case "define":
			if !active() {
				continue
			}
			if len(fields) < 2 {
				return nil, errf(lineNo+1, 1, "#define needs a name")
			}
			name := fields[1]
			if strings.Contains(name, "(") {
				return nil, errf(lineNo+1, 1, "function-like macros are not supported (object-like only)")
			}
			rest := strings.TrimSpace(strings.TrimPrefix(directive, "define"))
			rest = strings.TrimSpace(strings.TrimPrefix(rest, name))
			toks, err := Lex(rest)
			if err != nil {
				return nil, fmt.Errorf("minic: #define %s: %w", name, err)
			}
			// -D definitions take precedence (command line wins, as with cc).
			if _, fromCmdline := defines[name]; !fromCmdline {
				macros[name] = toks[:len(toks)-1]
			}
		case "undef":
			if active() && len(fields) >= 2 {
				delete(macros, fields[1])
			}
		case "ifdef", "ifndef":
			if len(fields) < 2 {
				return nil, errf(lineNo+1, 1, "#%s needs a name", fields[0])
			}
			_, defined := macros[fields[1]]
			cond := defined
			if fields[0] == "ifndef" {
				cond = !defined
			}
			condStack = append(condStack, cond)
		case "else":
			if len(condStack) < 2 {
				return nil, errf(lineNo+1, 1, "#else without #if")
			}
			condStack[len(condStack)-1] = !condStack[len(condStack)-1]
		case "endif":
			if len(condStack) < 2 {
				return nil, errf(lineNo+1, 1, "#endif without #if")
			}
			condStack = condStack[:len(condStack)-1]
		default:
			return nil, errf(lineNo+1, 1, "unsupported directive #%s", fields[0])
		}
	}
	if len(condStack) != 1 {
		return nil, fmt.Errorf("minic: unterminated #if block")
	}

	toks, err := Lex(strings.Join(kept, "\n"))
	if err != nil {
		return nil, err
	}
	return expandMacros(toks, macros, 0)
}

// maxExpandedTokens caps a translation unit after macro expansion. Each
// expansion round may multiply the stream, so without a cap a chain of
// #defines that each repeat the next expands into billions of tokens. The
// largest benchmark kernel expands to about 1.3k tokens.
const maxExpandedTokens = 1 << 16

func expandMacros(toks []Token, macros map[string][]Token, depth int) ([]Token, error) {
	if depth > 32 {
		return nil, fmt.Errorf("minic: macro expansion too deep (recursive #define?)")
	}
	out := make([]Token, 0, len(toks))
	changed := false
	for _, t := range toks {
		if len(out) > maxExpandedTokens {
			return nil, fmt.Errorf("minic: macro expansion exceeds %d tokens", maxExpandedTokens)
		}
		if t.Kind == TokIdent {
			if rep, ok := macros[t.Text]; ok {
				changed = true
				for _, r := range rep {
					r.Line, r.Col = t.Line, t.Col
					out = append(out, r)
				}
				continue
			}
		}
		out = append(out, t)
	}
	if changed {
		return expandMacros(out, macros, depth+1)
	}
	return out, nil
}
