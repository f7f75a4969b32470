package minic

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string, defs map[string]string) *File {
	t.Helper()
	f, err := ParseSource(src, defs)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func mustCheck(t *testing.T, src string, defs map[string]string) *File {
	t.Helper()
	f := mustParse(t, src, defs)
	if err := Check(f, CheckOptions{}); err != nil {
		t.Fatalf("check: %v", err)
	}
	return f
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`int x = 0x1F + 042 - 'a' * 3.5e2; // comment
/* block */ "str\n"`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	if toks[0].Kind != TokKeyword || toks[0].Text != "int" {
		t.Errorf("first token: %v", toks[0])
	}
	// 0x1F = 31, 042 octal = 34, 'a' = 97
	if toks[3].IntVal != 31 {
		t.Errorf("hex literal: %d", toks[3].IntVal)
	}
	if toks[5].IntVal != 34 {
		t.Errorf("octal literal: %d", toks[5].IntVal)
	}
	if toks[7].IntVal != 97 {
		t.Errorf("char literal: %d", toks[7].IntVal)
	}
	if toks[9].FloatVal != 350 {
		t.Errorf("float literal: %v", toks[9].FloatVal)
	}
	last := toks[len(toks)-2]
	if last.Kind != TokStrLit || last.Text != "str\n" {
		t.Errorf("string literal: %v", last)
	}
	_ = kinds
	_ = texts
}

func TestLexSuffixes(t *testing.T) {
	toks, err := Lex("10UL 3ll 2.5f 7u")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].IntVal != 10 || toks[1].IntVal != 3 || toks[3].IntVal != 7 {
		t.Errorf("suffixed ints: %v %v %v", toks[0], toks[1], toks[3])
	}
	if !toks[2].IsFloat || toks[2].FloatVal != 2.5 {
		t.Errorf("2.5f: %v", toks[2])
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"/* unterminated", `"open`, "'x", "@"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("expected lex error for %q", src)
		}
	}
}

func TestPreprocessorDefines(t *testing.T) {
	src := `
#define N 10
#define M (N * 2)
int a[M];
`
	f := mustCheck(t, src, nil)
	if len(f.Globals) != 1 || f.Globals[0].Type.Len != 20 {
		t.Fatalf("expected int a[20], got %v", f.Globals[0].Type)
	}
}

func TestPreprocessorCmdlineWins(t *testing.T) {
	src := `
#define N 10
int a[N];
`
	f := mustCheck(t, src, map[string]string{"N": "7"})
	if f.Globals[0].Type.Len != 7 {
		t.Fatalf("-D should win: got %d", f.Globals[0].Type.Len)
	}
}

func TestPreprocessorConditionals(t *testing.T) {
	src := `
#ifdef BIG
int a[100];
#else
int a[10];
#endif
#ifndef BIG
int b;
#endif
`
	f := mustCheck(t, src, nil)
	if f.Globals[0].Type.Len != 10 || len(f.Globals) != 2 {
		t.Fatalf("conditional compilation wrong: %+v", f.Globals)
	}
	f2 := mustCheck(t, src, map[string]string{"BIG": "1"})
	if f2.Globals[0].Type.Len != 100 || len(f2.Globals) != 1 {
		t.Fatalf("BIG branch wrong: %+v", f2.Globals)
	}
}

func TestPreprocessorRecursionGuard(t *testing.T) {
	if _, err := Preprocess("#define A A\nint x = A;", nil); err == nil {
		t.Fatal("expected recursion error")
	}
}

// TestPreprocessorExpansionLimits pins the limits of macro expansion at
// their edges. They are those of rewriting the stream once per round: at
// most 32 rounds that replace something, and no round's stream longer than
// 65536 tokens before its EOF, even where a later round shrinks it.
func TestPreprocessorExpansionLimits(t *testing.T) {
	chain := func(n int) string { // A0 -> A1 -> ... -> An -> x: n+1 rounds
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "#define A%d A%d\n", i, i+1)
		}
		fmt.Fprintf(&b, "#define A%d x\nA0 y", n)
		return b.String()
	}
	list := func(n int, name string) string { return strings.TrimSpace(strings.Repeat(name+" ", n)) }
	const deep = "minic: macro expansion too deep (recursive #define?)"
	const long = "minic: macro expansion exceeds 65536 tokens"
	for _, c := range []struct {
		name, src string
		want      string // error, or the expanded tokens' texts
	}{
		{"32 rounds", chain(31), "x y"},
		{"33 rounds", chain(32), deep},
		{"mutual recursion", "#define A B\n#define B A\nA", deep},
		{"doubling", "#define A A A\nA", long},
		{"65536 tokens", "#define B " + list(65536, "x") + "\nB", "65536"},
		{"65537 tokens", "#define B " + list(65537, "x") + "\nB", long},
		{"long intermediate round", "#define E\n#define B " + list(70000, "E") + "\nB z", long},
		{"short rounds", "#define E\n#define B " + list(30000, "E") + "\nB B z", "z"},
	} {
		toks, err := Preprocess(c.src, nil)
		got := ""
		switch {
		case err != nil:
			got = err.Error()
		case len(toks) > 1000:
			got = strconv.Itoa(len(toks) - 1)
		default:
			var texts []string
			for _, tk := range toks[:len(toks)-1] {
				texts = append(texts, tk.Text)
			}
			got = strings.Join(texts, " ")
		}
		if got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
	// Every token a macro produces takes the position of the name in the
	// source, through nested macros too.
	toks, err := Preprocess("#define A B 1\n#define B 2\nint\n  A;", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range toks[1:3] {
		if tk.Line != 4 || tk.Col != 3 {
			t.Errorf("token %q at %d:%d, want 4:3", tk.Text, tk.Line, tk.Col)
		}
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	f := mustParse(t, "int x = 1 + 2 * 3 << 1 & 7;", nil)
	got := Dump(f.Globals[0].Init)
	want := "(((1+(2*3))<<1)&7)"
	if got != want {
		t.Errorf("precedence: got %s, want %s", got, want)
	}
}

func TestParseDeclarators(t *testing.T) {
	f := mustParse(t, `
double A[10][20];
int *p;
char **pp;
struct point { int x; int y; };
struct point pts[4];
`, nil)
	if f.Globals[0].Type.Kind != KArray || f.Globals[0].Type.Len != 10 ||
		f.Globals[0].Type.Elem.Len != 20 {
		t.Errorf("2D array: %v", f.Globals[0].Type)
	}
	if f.Globals[1].Type.Kind != KPtr {
		t.Errorf("pointer: %v", f.Globals[1].Type)
	}
	if f.Globals[2].Type.Kind != KPtr || f.Globals[2].Type.Elem.Kind != KPtr {
		t.Errorf("double pointer: %v", f.Globals[2].Type)
	}
	if f.Globals[3].Type.Kind != KArray || f.Globals[3].Type.Elem.Kind != KStruct {
		t.Errorf("struct array: %v", f.Globals[3].Type)
	}
}

func TestStructLayout(t *testing.T) {
	f := mustParse(t, `struct s { char c; double d; int i; };`, nil)
	s := f.Structs[0]
	if s.SizeAlign() != 24 {
		t.Errorf("struct size = %d, want 24", s.SizeAlign())
	}
	d, _ := s.FieldByName("d")
	if d.Offset != 8 {
		t.Errorf("d offset = %d, want 8", d.Offset)
	}
	i, _ := s.FieldByName("i")
	if i.Offset != 16 {
		t.Errorf("i offset = %d, want 16", i.Offset)
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `
int f(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) {
    if (i % 2 == 0) continue;
    s += i;
  }
  while (s > 100) s -= 10;
  do { s++; } while (s < 0);
  switch (n) {
    case 0:
    case 1: s = 1; break;
    case 2: s = 2; break;
    default: s = 3;
  }
  return s;
}
`
	mustCheck(t, src, nil)
}

func TestCheckerTypesAndConversions(t *testing.T) {
	src := `
double g;
int f(int a, double b) {
  long l = a;       // int -> long
  double d = a + b; // usual arithmetic conversion
  g = d * l;
  return (int)g;
}
`
	f := mustCheck(t, src, nil)
	fn := f.Funcs[0]
	// a + b must have been converted to double.
	ds := fn.Body.Stmts[1].(*DeclStmt)
	if ds.Vars[0].Init.Type().Kind != KDouble {
		t.Errorf("a+b type: %v", ds.Vars[0].Init.Type())
	}
}

func TestCheckerErrors(t *testing.T) {
	cases := map[string]string{
		"undefined var":     "int f() { return x; }",
		"undefined func":    "int f() { return g(); }",
		"bad arg count":     "int g(int a) { return a; } int f() { return g(); }",
		"assign to rvalue":  "int f() { 3 = 4; return 0; }",
		"break outside":     "int f() { break; return 0; }",
		"struct arithmetic": "struct s { int x; }; struct s v; int f() { return v + 1; }",
		"void return value": "void f() { return 3; }",
		"index non-array":   "int f(int x) { return x[0]; }",
		"member non-struct": "int f(int x) { return x.y; }",
		"deref non-pointer": "int f(int x) { return *x; }",
	}
	for name, src := range cases {
		f, err := ParseSource(src, nil)
		if err != nil {
			continue // parse error also acceptable for some cases
		}
		if err := Check(f, CheckOptions{}); err == nil {
			t.Errorf("%s: expected check error", name)
		}
	}
}

func TestCheckerRejectsUntransformedExtensions(t *testing.T) {
	try := `int f() { try { throw 1; } catch (int e) { } return 0; }`
	f := mustParse(t, try, nil)
	if err := Check(f, CheckOptions{}); err == nil || !strings.Contains(err.Error(), "Transform") {
		t.Errorf("try/catch should be rejected pre-transform: %v", err)
	}
	union := `union u { int i; double d; }; union u x;`
	f2 := mustParse(t, union, nil)
	if err := Check(f2, CheckOptions{}); err == nil || !strings.Contains(err.Error(), "Transform") {
		t.Errorf("union should be rejected pre-transform: %v", err)
	}
}

func TestTransformExceptions(t *testing.T) {
	src := `
int g;
int f(int x) {
  try {
    if (x < 0) throw 1;
    g = x;
  } catch (int e) {
    g = -1;
  }
  return g;
}
`
	f := mustParse(t, src, nil)
	rep := Transform(f)
	if rep.ExceptionsRemoved != 1 || rep.ThrowsRemoved != 1 {
		t.Fatalf("report: %+v", rep)
	}
	// After transformation, the file must pass the strict check.
	if err := Check(f, CheckOptions{}); err != nil {
		t.Fatalf("transformed file should check: %v", err)
	}
}

func TestTransformUnion(t *testing.T) {
	src := `
union bits { double d; long ll; };
union bits u;
int f() { u.d = 1.5; return (int)(u.ll >> 62); }
`
	f := mustParse(t, src, nil)
	rep := Transform(f)
	if rep.UnionsConverted != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if err := Check(f, CheckOptions{}); err != nil {
		t.Fatalf("transformed union should check: %v", err)
	}
	s := f.Structs[0]
	if s.IsUnion {
		t.Error("union flag should be cleared")
	}
	if s.SizeAlign() != 8 {
		t.Errorf("overlapped size = %d, want 8", s.SizeAlign())
	}
	for _, fl := range s.Fields {
		if fl.Offset != 0 {
			t.Errorf("field %s offset = %d, want 0", fl.Name, fl.Offset)
		}
	}
}

func TestBuiltinRecognition(t *testing.T) {
	src := `
double f(double x) {
  print_f(x);
  return sqrt(x) + pow(x, 2.0);
}
`
	f := mustCheck(t, src, nil)
	var calls []*Call
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *Call:
			calls = append(calls, x)
			for _, a := range x.Args {
				walk(a)
			}
		case *Binary:
			walk(x.X)
			walk(x.Y)
		}
	}
	for _, s := range f.Funcs[0].Body.Stmts {
		switch st := s.(type) {
		case *ExprStmt:
			walk(st.X)
		case *ReturnStmt:
			walk(st.X)
		}
	}
	if len(calls) != 3 {
		t.Fatalf("expected 3 calls, got %d", len(calls))
	}
	for _, c := range calls {
		if c.Builtin == "" {
			t.Errorf("call %s not recognized as builtin", c.Name)
		}
	}
}

func TestPointerArithmeticTyping(t *testing.T) {
	src := `
int f(int *p, int n) {
  int *q = p + n;
  return q - p;
}
`
	mustCheck(t, src, nil)
}

func TestSizeof(t *testing.T) {
	src := `
struct s { int a; double b; };
int szs() { return sizeof(struct s); }
int szd() { return sizeof(double); }
`
	mustCheck(t, src, nil)
}

func TestGlobalInitializers(t *testing.T) {
	src := `
int a = 5;
double b[3] = {1.0, 2.0, 3.0};
int m[2][2] = {{1, 2}, {3, 4}};
struct p { int x; int y; };
struct p pt = {10, 20};
`
	f := mustCheck(t, src, nil)
	if len(f.Globals) != 4 {
		t.Fatalf("globals: %d", len(f.Globals))
	}
	il, ok := f.Globals[2].Init.(*InitList)
	if !ok || len(il.Items) != 2 {
		t.Fatalf("nested init list: %v", f.Globals[2].Init)
	}
}

func TestAddrTakenAnalysis(t *testing.T) {
	src := `
int f() {
  int x = 1;
  int y = 2;
  int *p = &x;
  int arr[4];
  arr[0] = y;
  return *p + arr[0];
}
`
	f := mustCheck(t, src, nil)
	var get func(name string) *VarDecl
	decls := map[string]*VarDecl{}
	var collect func(s Stmt)
	collect = func(s Stmt) {
		switch st := s.(type) {
		case *BlockStmt:
			for _, sub := range st.Stmts {
				collect(sub)
			}
		case *DeclStmt:
			for _, v := range st.Vars {
				decls[v.Name] = v
			}
		}
	}
	collect(f.Funcs[0].Body)
	get = func(name string) *VarDecl { return decls[name] }
	if !get("x").AddrTaken {
		t.Error("x should be address-taken")
	}
	if get("y").AddrTaken {
		t.Error("y should not be address-taken")
	}
	if !get("arr").AddrTaken {
		t.Error("arrays are always memory-resident")
	}
}
