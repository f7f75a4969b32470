package jsvm_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/compiler"
	"wasmbench/internal/ir"
	"wasmbench/internal/jsvm"
)

// frontEndFile pins what the front end makes of every source in
// frontEndSources; see TestJSFrontEnd.
const frontEndFile = "testdata/frontend.txt"

// jsPunctuators are the punctuators the lexer knows.
var jsPunctuators = []string{
	">>>=", "===", "!==", ">>>", "<<=", ">>=", "**",
	"=>", "==", "!=", "<=", ">=", "&&", "||", "++", "--", "<<", ">>",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
	"+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^", "?",
	":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
}

// frontEndSnippets are the lexer's edge cases: every punctuator alone and
// between two operands, the sequences where longest match decides the
// tokens, and literals at the limits of their syntax. They seed FuzzJSRun.
func frontEndSnippets() []struct{ name, src string } {
	var out []struct{ name, src string }
	add := func(name, src string) { out = append(out, struct{ name, src string }{name, src}) }
	for _, p := range jsPunctuators {
		add("punct "+p, p)
		add("operands "+p, "a"+p+"b")
		add("spaced "+p, "x = a "+p+" b;")
	}
	for _, s := range []string{
		"x >>>= 1;", "x >>>=1", "a>>>>=b", "a>>>>b", "a>>=b>>>c", "a<<<=b",
		"a--b", "a- -b", "a---b", "a-- -b", "a+++b", "a+ ++b", "a++ +b",
		"x=>y", "a**b", "a**=b", "a!===b", "a!==b", "a====b", "a=>=b", "a<=>b",
		"a&&=b", "a||=b", "a&&&b", "a|||b", "a...b",
		".5", "x = .5;", "1.e3", "x = 1.e3;", "1.5e-3", "1E+2", "0x", "0xG", "0x1f", "0XaB",
		"1..5", "5.toString", "1.2.3", "x = 1 /* c */ + 2;", "x = 1 // c\n+ 2;",
		"x = 1; /*", "/*", "/**/", "/* a\nb */ x", "//",
		`'\u00'`, `x = '\u00';`, `'A'`, `"\u004"`, `'\q\n\t\r\0'`, `"a\
b"`, "'a\nb'", `'\'`,
		"a\n.b", "x\r\ny", "\tx\t=\t1\t;",
		"a.b.c[d](e)(f)", "new A.B(1)", "new A", "a ? b : c ? d : e",
		"L: for (;;) { break L; }", "x = {a: 1, 'b': 2, 3: c, if: d};",
		"try { throw 1; } catch (e) {}", "try { } finally { }", "function f() { return }",
		"var a, b = 1, c;", "x = [1, 2, , 3];", "x = [,];", "typeof typeof x",
	} {
		add(fmt.Sprintf("seq %q", s), s)
	}
	return out
}

// frontEndMalformed are sources the front end rejects, one per error it
// reports.
func frontEndMalformed() []struct{ name, src string } {
	deep := func(open, mid, close string, n int) string {
		return strings.Repeat(open, n) + mid + strings.Repeat(close, n)
	}
	return []struct{ name, src string }{
		{"unterminated string", `var s = "abc`},
		{"unterminated single-quoted string", "x = 'abc\n"},
		{"unterminated escape at EOF", `x = "\`},
		{"unterminated comment", "x = 1;\n/* abc\n"},
		{"comment at EOF", "x = 1; /"},
		{"bad hex literal", "x = 0x;"},
		{"hex literal overflow", "x = 0x1ffffffffffffffff;"},
		{"bad exponent", "x = 1e;"},
		{"bad signed exponent", "x = 1e+;"},
		{"two dots", "x = 1.2.3;"},
		{"unexpected character", "x = a @ b;"},
		{"unexpected hash", "#x"},
		{"unexpected backslash", `x\y`},
		{"unexpected non-ASCII", "x = é;"},
		{"unexpected NUL", "x = \x00;"},
		{"missing name", "var = 3;"},
		{"anonymous declaration", "function () {}"},
		{"unclosed condition", "if (true {"},
		{"dangling operator", "1 +"},
		{"EOF in block", "{ x = 1;"},
		{"EOF in function", "function f() { x = 1;"},
		{"do without while", "do x++; until (x)"},
		{"statement before case", "switch (x) { y; }"},
		{"bad object key", "x = {[a]: 1};"},
		{"unexpected token", "x = );"},
		{"arrow", "x => y"},
		{"exponent operator", "a ** b"},
		{"missing colon", "x = a ? b;"},
		{"nesting parens", deep("(", "1", ")", 1001)},
		{"nesting brackets", deep("[", "1", "]", 1001)},
		{"nesting blocks", deep("{", "x;", "}", 1001)},
		{"nesting unary", strings.Repeat("-", 1001) + "x"},
		{"nesting unary spaced", strings.Repeat("- ", 1001) + "x"},
		{"nesting binary", "x = 1" + strings.Repeat(" + 1", 1001) + ";"},
		{"nesting members", "x" + strings.Repeat(".a", 1001)},
		{"nesting calls", "f" + strings.Repeat("()", 1001)},
		{"nesting functions", deep("function f() {", "", "}", 1001)},
		{"nesting at limit", deep("(", "1", ")", 300)},
	}
}

// jsTestFiles are the engine's unit tests whose string literals hold
// programs.
var jsTestFiles = []string{"jsvm_test.go", "tier_boundary_test.go", "stmt_shapes_test.go", "recycle_test.go"}

// frontEndRaceStride thins the kernels under -race, where compiling all of
// them takes a minute: only every frontEndRaceStride-th one is checked.
const frontEndRaceStride = 8

// frontEndLevels are the optimization levels the ledgers run the kernels'
// JS at.
var frontEndLevels = []ir.OptLevel{ir.O2, ir.O0, ir.O1, ir.O3, ir.Os, ir.Oz, ir.Ofast}

// kernelJS compiles a kernel's JS at size XS.
func kernelJS(tb testing.TB, b *benchsuite.Benchmark, tc compiler.Toolchain, lv ir.OptLevel) string {
	tb.Helper()
	art, err := compiler.Compile(b.Source, compiler.Options{
		Opt: lv, Toolchain: tc, Defines: b.Defines(benchsuite.XS),
		HeapLimit: b.HeapLimitBytes(benchsuite.XS), ModuleName: b.Name,
		Targets: []compiler.Target{compiler.TargetJS},
	})
	if err != nil {
		tb.Fatalf("%s/%s/%s: %v", b.Name, tc, lv, err)
	}
	return art.JS
}

// frontEndSources lists every source TestJSFrontEnd pins, keyed: the
// kernels' JS for both toolchains at every level the ledgers run, Table 9's
// hand-written JS, the real-world JS, the engine tests' snippets (keyed by
// content hash, so adding one adds a line), the edge-case snippets and the
// malformed sources.
func frontEndSources(tb testing.TB) [][2]string {
	var out [][2]string
	for i, b := range benchsuite.All() {
		if raceEnabled && i%frontEndRaceStride != 0 {
			continue
		}
		for _, tc := range []compiler.Toolchain{compiler.Cheerp, compiler.Emscripten} {
			for _, lv := range frontEndLevels {
				key := fmt.Sprintf("kernel/%s/%s/%s", b.Name, tc, strings.TrimPrefix(lv.String(), "-"))
				out = append(out, [2]string{key, kernelJS(tb, b, tc, lv)})
			}
		}
	}
	for _, m := range benchsuite.ManualBenchmarks() {
		out = append(out, [2]string{"table9/" + strings.ReplaceAll(m.Name, " ", "_"), m.Source})
	}
	for _, op := range benchsuite.RealWorld() {
		out = append(out, [2]string{"table10/" + op.App + "/" + strings.ReplaceAll(op.Op, " ", "_"), op.JSSrc})
	}
	seen := map[string]bool{}
	var tests [][2]string
	for _, file := range jsTestFiles {
		for _, s := range testSnippets(tb, file) {
			h := fnv.New64a()
			h.Write([]byte(s))
			key := fmt.Sprintf("test/%016x", h.Sum64())
			if !seen[key] {
				seen[key] = true
				tests = append(tests, [2]string{key, s})
			}
		}
	}
	sort.Slice(tests, func(i, j int) bool { return tests[i][0] < tests[j][0] })
	out = append(out, tests...)
	for _, s := range frontEndSnippets() {
		out = append(out, [2]string{"snippet/" + strings.ReplaceAll(s.name, " ", "_"), s.src})
	}
	for _, s := range frontEndMalformed() {
		out = append(out, [2]string{"malformed/" + strings.ReplaceAll(s.name, " ", "_"), s.src})
	}
	return out
}

// TestJSFrontEnd pins the front end's output for every JS source the
// ledgers run and for the lexer's edge cases against testdata/frontend.txt:
// tokens (count, kinds, texts, values, lines), the AST, the node counts
// tier-up charges for, the slot numbering and typing, and the exact error
// of each malformed source. Any change to lexing, parsing or compile-time
// analysis that moves one of them fails here, before a ledger has to run.
// Regenerate with -update only for an intentional front-end change.
func TestJSFrontEnd(t *testing.T) {
	var b strings.Builder
	for _, s := range frontEndSources(t) {
		fmt.Fprintf(&b, "%s %s\n", s[0], jsvm.FrontEnd(s[1]))
	}
	got := b.String()
	path := filepath.FromSlash(frontEndFile)
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestJSFrontEnd -update)", err)
	}
	if got == string(want) {
		return
	}
	wantLine := map[string]string{}
	for _, l := range strings.Split(string(want), "\n") {
		key, _, _ := strings.Cut(l, " ")
		wantLine[key] = l
	}
	for _, l := range strings.Split(got, "\n") {
		key, _, _ := strings.Cut(l, " ")
		if w := wantLine[key]; l != w {
			t.Fatalf("%s differs:\n got  %s\n want %s", frontEndFile, l, w)
		}
	}
	if !raceEnabled {
		t.Fatalf("%s has lines this run did not produce", frontEndFile)
	}
}

// BenchmarkJSFrontEnd times the front end per stage over the 82 kernel
// builds at -O2 and size XS, both toolchains, one op covering all of them:
// lex, lex+parse, compile of the parsed programs, and the whole front end
// as Run performs it before the first step.
func BenchmarkJSFrontEnd(b *testing.B) {
	var srcs []string
	size := int64(0)
	for _, k := range benchsuite.All() {
		for _, tc := range []compiler.Toolchain{compiler.Cheerp, compiler.Emscripten} {
			src := kernelJS(b, k, tc, ir.O2)
			srcs = append(srcs, src)
			size += int64(len(src))
		}
	}
	vms := make([]*jsvm.VM, len(srcs))
	bodies := make([]any, len(srcs))
	for i, src := range srcs {
		vms[i] = jsvm.New(jsvm.DefaultConfig())
		body, err := jsvm.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	stage := func(name string, run func(i int) error) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				for i := range srcs {
					if err := run(i); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	stage("lex", func(i int) error { return jsvm.Lex(srcs[i]) })
	stage("parse", func(i int) error {
		_, err := jsvm.Parse(srcs[i])
		return err
	})
	stage("compile", func(i int) error { return jsvm.Compile(vms[i], bodies[i]) })
	stage("all", func(i int) error {
		body, err := jsvm.Parse(srcs[i])
		if err != nil {
			return err
		}
		return jsvm.Compile(vms[i], body)
	})
}
