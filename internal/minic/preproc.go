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

	// kept is src with every directive line and every line in an inactive
	// region emptied, so token positions match the source.
	var kept strings.Builder
	kept.Grow(len(src))
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
	for lineNo, rest, more := 0, src, true; more; lineNo++ {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		if lineNo > 0 {
			kept.WriteByte('\n')
		}
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "#") {
			if active() {
				kept.WriteString(line)
			}
			continue
		}
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

	toks, err := Lex(kept.String())
	if err != nil {
		return nil, err
	}
	return expandMacros(toks, macros)
}

// maxExpandedTokens caps a translation unit after macro expansion. Each
// expansion round may multiply the stream, so without a cap a chain of
// #defines that each repeat the next expands into billions of tokens. The
// largest benchmark kernel expands to about 1.3k tokens.
const maxExpandedTokens = 1 << 16

// maxExpansionRounds is how many rounds of macro replacement a stream may
// need: a replacement list may name macros, whose lists are replaced in
// the next round, and so on.
const maxExpansionRounds = 32

// expandMacros replaces every macro name in toks (which ends in EOF) by its
// replacement list, repeatedly, each replacement token taking the position
// of the name it replaces. Its limits are those of rewriting the whole
// stream once per round: rounds that replace something are capped at
// maxExpansionRounds, and the stream any round produces at
// maxExpandedTokens past its final EOF. It checks both from token counts
// before it expands anything, then builds the result in one pass.
func expandMacros(toks []Token, macros map[string][]Token) ([]Token, error) {
	macroOf := func(t Token) ([]Token, bool) {
		if t.Kind != TokIdent {
			return nil, false
		}
		rep, ok := macros[t.Text]
		return rep, ok
	}
	// uses counts the stream's macro names; plain the other tokens.
	uses := map[string]int{}
	plain := 0
	for _, t := range toks {
		if _, ok := macroOf(t); ok {
			uses[t.Text]++
		} else {
			plain++
		}
	}
	// After r rounds, a macro name has become grown[name] tokens, of which
	// some are still macro names if live[name].
	const sat = maxExpandedTokens + 2 // any larger count fails alike
	grown := make(map[string]int, len(macros))
	live := make(map[string]bool, len(macros))
	for name := range macros {
		grown[name], live[name] = 1, true
	}
	next := make(map[string]int, len(macros))
	nextLive := make(map[string]bool, len(macros))
	size := plain
	for round := 0; ; round++ {
		if round > maxExpansionRounds {
			return nil, fmt.Errorf("minic: macro expansion too deep (recursive #define?)")
		}
		changed := false
		for name := range uses {
			changed = changed || live[name]
		}
		// One more round: each name becomes its list, each macro name in it
		// what that name became after this many rounds.
		for name, rep := range macros {
			n, l := 0, false
			for _, r := range rep {
				if _, ok := macroOf(r); ok {
					n += grown[r.Text]
					l = l || live[r.Text]
				} else {
					n++
				}
			}
			next[name], nextLive[name] = min(n, sat), l
		}
		grown, next = next, grown
		live, nextLive = nextLive, live
		size = plain
		for name, k := range uses {
			size = min(size+k*grown[name], sat)
		}
		if size-1 > maxExpandedTokens {
			return nil, fmt.Errorf("minic: macro expansion exceeds %d tokens", maxExpandedTokens)
		}
		if !changed {
			break
		}
	}
	if len(uses) == 0 {
		return toks, nil
	}
	out := make([]Token, 0, size)
	var expand func(t Token, line, col int)
	expand = func(t Token, line, col int) {
		rep, ok := macroOf(t)
		if !ok {
			t.Line, t.Col = line, col
			out = append(out, t)
			return
		}
		for _, r := range rep {
			expand(r, line, col)
		}
	}
	for _, t := range toks {
		expand(t, t.Line, t.Col)
	}
	return out, nil
}
