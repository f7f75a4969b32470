// Package difftest is the cross-backend differential fuzzing subsystem:
// a seeded, deterministic random MiniC program generator, an oracle that
// compiles each program through internal/compiler and runs it on every
// backend (the wasmvm tier mode × dispatcher matrix, jsvm across JIT tiers,
// x86vm), a greedy test-case minimizer, and a committed regression corpus.
//
// The paper's methodology (§3) rests on the premise that the Wasm, JS, and
// native builds of each kernel compute the same thing; this package checks
// that premise adversarially, in the spirit of Csmith-style differential
// compiler testing. Generated programs are well-typed and trap-free by
// construction (guarded divisions, masked shifts and array indexes,
// range-checked float→int casts, bounded loops), so any backend error or
// observable mismatch is a divergence, never an expected trap.
package difftest

import (
	"fmt"
	"strings"
)

// rng is a splitmix64 PRNG: tiny, deterministic, and identical on every
// platform, so a seed names the same program forever.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) pick(weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	v := r.intn(total)
	for i, w := range weights {
		if v < w {
			return i
		}
		v -= w
	}
	return len(weights) - 1
}

// typ is a generated-program value type.
type typ int

// Value types the generator uses.
const (
	tInt typ = iota
	tUInt
	tLong
	tDouble
)

func (t typ) c() string {
	switch t {
	case tInt:
		return "int"
	case tUInt:
		return "unsigned"
	case tLong:
		return "long"
	default:
		return "double"
	}
}

// ---- Program AST ----
//
// The generator builds its own small AST rather than emitting text
// directly so the shrinker can delete statements and simplify expressions
// structurally while keeping the program well-typed (shrink.go).

type expr interface {
	t() typ
	render(b *strings.Builder)
	clone() expr
}

type stmt interface {
	renderStmt(b *strings.Builder, indent string)
	cloneStmt() stmt
}

// eLit is a literal.
type eLit struct {
	ty typ
	i  int64
	f  float64
}

func (e *eLit) t() typ { return e.ty }
func (e *eLit) render(b *strings.Builder) {
	switch e.ty {
	case tDouble:
		s := fmt.Sprintf("%g", e.f)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		fmt.Fprintf(b, "%s", s)
	case tUInt:
		fmt.Fprintf(b, "(unsigned)%d", uint32(e.i))
	case tLong:
		// An unsuffixed literal types by magnitude, so small long values
		// need the explicit cast (shift operands are not converted). The
		// parser reads the magnitude first, so LONG_MIN gets a (min+1)-1
		// spelling.
		if e.i == -9223372036854775808 {
			b.WriteString("(((long)(-9223372036854775807)) - ((long)(1)))")
			return
		}
		fmt.Fprintf(b, "(long)(%d)", e.i)
	default:
		fmt.Fprintf(b, "%d", e.i)
	}
}
func (e *eLit) clone() expr { c := *e; return &c }

// eVar references a scalar variable (global, local, param, or loop var).
type eVar struct {
	ty   typ
	name string
}

func (e *eVar) t() typ                    { return e.ty }
func (e *eVar) render(b *strings.Builder) { b.WriteString(e.name) }
func (e *eVar) clone() expr               { c := *e; return &c }

// eIdx loads from a global array; the index is masked at render time so
// any int expression is in-bounds by construction.
type eIdx struct {
	ty   typ
	arr  string
	mask int
	i    expr
	j    expr // second dimension (nil for 1D)
}

func (e *eIdx) t() typ { return e.ty }
func (e *eIdx) render(b *strings.Builder) {
	b.WriteString(e.arr)
	b.WriteString("[(")
	e.i.render(b)
	fmt.Fprintf(b, ") & %d]", e.mask)
	if e.j != nil {
		b.WriteString("[(")
		e.j.render(b)
		fmt.Fprintf(b, ") & %d]", e.mask)
	}
}
func (e *eIdx) clone() expr {
	c := *e
	c.i = e.i.clone()
	if e.j != nil {
		c.j = e.j.clone()
	}
	return &c
}

// eBin is arithmetic/bitwise. Render guards make it total: integer "/" and
// "%" get a nonzero denominator, shifts a masked count.
type eBin struct {
	ty   typ
	op   string
	x, y expr
}

func (e *eBin) t() typ { return e.ty }
func (e *eBin) render(b *strings.Builder) {
	switch {
	case (e.op == "/" || e.op == "%") && e.ty != tDouble:
		// Denominator in 1..16: total, and never INT_MIN/-1.
		b.WriteString("((")
		e.x.render(b)
		fmt.Fprintf(b, ") %s (((", e.op)
		e.y.render(b)
		b.WriteString(") & 15) + 1))")
	case e.op == "<<" || e.op == ">>":
		// The count is masked to the value width and cast to the left
		// operand's type: minic promotes shift operands independently, so
		// without the cast a long<<int reaches the IR as i64<<i32.
		width := 31
		if e.ty == tLong {
			width = 63
		}
		b.WriteString("((")
		e.x.render(b)
		fmt.Fprintf(b, ") %s ((%s)((", e.op, e.ty.c())
		e.y.render(b)
		fmt.Fprintf(b, ") & %d)))", width)
	default:
		b.WriteString("((")
		e.x.render(b)
		fmt.Fprintf(b, ") %s (", e.op)
		e.y.render(b)
		b.WriteString("))")
	}
}
func (e *eBin) clone() expr { c := *e; c.x = e.x.clone(); c.y = e.y.clone(); return &c }

// eCmp compares two same-typed operands; the result is int.
type eCmp struct {
	op   string
	x, y expr
}

func (e *eCmp) t() typ { return tInt }
func (e *eCmp) render(b *strings.Builder) {
	b.WriteString("((")
	e.x.render(b)
	fmt.Fprintf(b, ") %s (", e.op)
	e.y.render(b)
	b.WriteString("))")
}
func (e *eCmp) clone() expr { c := *e; c.x = e.x.clone(); c.y = e.y.clone(); return &c }

// eUn is unary minus / bitwise not / logical not.
type eUn struct {
	ty typ
	op string
	x  expr
}

func (e *eUn) t() typ { return e.ty }
func (e *eUn) render(b *strings.Builder) {
	fmt.Fprintf(b, "(%s(", e.op)
	e.x.render(b)
	b.WriteString("))")
}
func (e *eUn) clone() expr { c := *e; c.x = e.x.clone(); return &c }

// eCast converts between arithmetic types. float→int goes through the
// generated __f2i guard instead (eF2I), since the raw cast traps on
// out-of-range values on the Wasm and x86 backends.
type eCast struct {
	ty typ
	x  expr
}

func (e *eCast) t() typ { return e.ty }
func (e *eCast) render(b *strings.Builder) {
	fmt.Fprintf(b, "((%s)(", e.ty.c())
	e.x.render(b)
	b.WriteString("))")
}
func (e *eCast) clone() expr { c := *e; c.x = e.x.clone(); return &c }

// eF2I is the guarded float→int conversion (calls the emitted __f2i).
type eF2I struct{ x expr }

func (e *eF2I) t() typ { return tInt }
func (e *eF2I) render(b *strings.Builder) {
	b.WriteString("__f2i(")
	e.x.render(b)
	b.WriteString(")")
}
func (e *eF2I) clone() expr { c := *e; c.x = e.x.clone(); return &c }

// eCall calls a helper function or a math builtin.
type eCall struct {
	ty   typ
	name string
	args []expr
}

func (e *eCall) t() typ { return e.ty }
func (e *eCall) render(b *strings.Builder) {
	b.WriteString(e.name)
	b.WriteString("(")
	for i, a := range e.args {
		if i > 0 {
			b.WriteString(", ")
		}
		a.render(b)
	}
	b.WriteString(")")
}
func (e *eCall) clone() expr {
	c := *e
	c.args = make([]expr, len(e.args))
	for i, a := range e.args {
		c.args[i] = a.clone()
	}
	return &c
}

// eCond is the ternary operator over same-typed arms.
type eCond struct {
	ty      typ
	c, x, y expr
}

func (e *eCond) t() typ { return e.ty }
func (e *eCond) render(b *strings.Builder) {
	b.WriteString("((")
	e.c.render(b)
	b.WriteString(") ? (")
	e.x.render(b)
	b.WriteString(") : (")
	e.y.render(b)
	b.WriteString("))")
}
func (e *eCond) clone() expr {
	c := *e
	c.c, c.x, c.y = e.c.clone(), e.x.clone(), e.y.clone()
	return &c
}

// ---- Statements ----

// sAssign writes a scalar or array element: name[op]= rhs.
type sAssign struct {
	target string // variable name, or array name when idx != nil
	ty     typ
	mask   int  // array mask
	idx    expr // nil for scalars
	idx2   expr // second dimension
	op     string
	rhs    expr
}

func (s *sAssign) renderStmt(b *strings.Builder, ind string) {
	b.WriteString(ind)
	b.WriteString(s.target)
	if s.idx != nil {
		b.WriteString("[(")
		s.idx.render(b)
		fmt.Fprintf(b, ") & %d]", s.mask)
		if s.idx2 != nil {
			b.WriteString("[(")
			s.idx2.render(b)
			fmt.Fprintf(b, ") & %d]", s.mask)
		}
	}
	fmt.Fprintf(b, " %s ", s.op)
	s.rhs.render(b)
	b.WriteString(";\n")
}
func (s *sAssign) cloneStmt() stmt {
	c := *s
	if s.idx != nil {
		c.idx = s.idx.clone()
	}
	if s.idx2 != nil {
		c.idx2 = s.idx2.clone()
	}
	c.rhs = s.rhs.clone()
	return &c
}

// sIf is if/else over generated bodies.
type sIf struct {
	cond expr
	then []stmt
	els  []stmt
}

func (s *sIf) renderStmt(b *strings.Builder, ind string) {
	b.WriteString(ind)
	b.WriteString("if (")
	s.cond.render(b)
	b.WriteString(") {\n")
	renderBody(b, s.then, ind+"\t")
	if len(s.els) > 0 {
		b.WriteString(ind)
		b.WriteString("} else {\n")
		renderBody(b, s.els, ind+"\t")
	}
	b.WriteString(ind)
	b.WriteString("}\n")
}
func (s *sIf) cloneStmt() stmt {
	return &sIf{cond: s.cond.clone(), then: cloneBody(s.then), els: cloneBody(s.els)}
}

// sFor is a canonical bounded counting loop with a dedicated loop
// variable never assigned inside the body.
type sFor struct {
	v    string
	n    int
	body []stmt
}

func (s *sFor) renderStmt(b *strings.Builder, ind string) {
	fmt.Fprintf(b, "%sfor (%s = 0; %s < %d; %s++) {\n", ind, s.v, s.v, s.n, s.v)
	renderBody(b, s.body, ind+"\t")
	b.WriteString(ind)
	b.WriteString("}\n")
}
func (s *sFor) cloneStmt() stmt { return &sFor{v: s.v, n: s.n, body: cloneBody(s.body)} }

// sWhile is a bounded while or do-while over a dedicated countdown var.
type sWhile struct {
	v    string
	n    int
	do   bool
	body []stmt
}

func (s *sWhile) renderStmt(b *strings.Builder, ind string) {
	fmt.Fprintf(b, "%s%s = %d;\n", ind, s.v, s.n)
	if s.do {
		b.WriteString(ind)
		b.WriteString("do {\n")
		renderBody(b, s.body, ind+"\t")
		fmt.Fprintf(b, "%s\t%s = %s - 1;\n", ind, s.v, s.v)
		fmt.Fprintf(b, "%s} while (%s > 0);\n", ind, s.v)
		return
	}
	fmt.Fprintf(b, "%swhile (%s > 0) {\n", ind, s.v)
	renderBody(b, s.body, ind+"\t")
	fmt.Fprintf(b, "%s\t%s = %s - 1;\n", ind, s.v, s.v)
	b.WriteString(ind)
	b.WriteString("}\n")
}
func (s *sWhile) cloneStmt() stmt {
	return &sWhile{v: s.v, n: s.n, do: s.do, body: cloneBody(s.body)}
}

// sSwitch dispatches on (tag & 7) with constant cases; arms without
// sBreakLast fall through, exercising the backends' jump tables.
type sSwitch struct {
	tag   expr
	cases []sCase
	def   []stmt
}

type sCase struct {
	val  int
	brk  bool
	body []stmt
}

func (s *sSwitch) renderStmt(b *strings.Builder, ind string) {
	b.WriteString(ind)
	b.WriteString("switch ((")
	s.tag.render(b)
	b.WriteString(") & 7) {\n")
	for _, cs := range s.cases {
		fmt.Fprintf(b, "%scase %d:\n", ind, cs.val)
		renderBody(b, cs.body, ind+"\t")
		if cs.brk {
			b.WriteString(ind)
			b.WriteString("\tbreak;\n")
		}
	}
	b.WriteString(ind)
	b.WriteString("default:\n")
	renderBody(b, s.def, ind+"\t")
	b.WriteString(ind)
	b.WriteString("}\n")
}
func (s *sSwitch) cloneStmt() stmt {
	c := &sSwitch{tag: s.tag.clone(), def: cloneBody(s.def)}
	for _, cs := range s.cases {
		c.cases = append(c.cases, sCase{val: cs.val, brk: cs.brk, body: cloneBody(cs.body)})
	}
	return c
}

// sBreakIf / sContinueIf are conditional loop exits (only generated inside
// loop bodies).
type sBreakIf struct {
	cond expr
	cont bool
}

func (s *sBreakIf) renderStmt(b *strings.Builder, ind string) {
	b.WriteString(ind)
	b.WriteString("if (")
	s.cond.render(b)
	if s.cont {
		b.WriteString(") { continue; }\n")
	} else {
		b.WriteString(") { break; }\n")
	}
}
func (s *sBreakIf) cloneStmt() stmt { return &sBreakIf{cond: s.cond.clone(), cont: s.cont} }

// sPrint emits one observable event mid-program.
type sPrint struct {
	x expr
}

func (s *sPrint) renderStmt(b *strings.Builder, ind string) {
	b.WriteString(ind)
	switch s.x.t() {
	case tDouble:
		b.WriteString("print_f(")
		s.x.render(b)
	case tLong:
		b.WriteString("print_i(")
		s.x.render(b)
	default:
		b.WriteString("print_i((long)(")
		s.x.render(b)
		b.WriteString(")")
	}
	b.WriteString(");\n")
}
func (s *sPrint) cloneStmt() stmt { return &sPrint{x: s.x.clone()} }

// sHeap is the memory-growth idiom: malloc a buffer, fill it, fold a
// checksum into gl0, free it. words is the buffer size in 4-byte words;
// large values force memory.grow through the Cheerp allocator.
type sHeap struct {
	words int
	mulC  int64
}

func (s *sHeap) renderStmt(b *strings.Builder, ind string) {
	fmt.Fprintf(b, "%s{\n", ind)
	fmt.Fprintf(b, "%s\tint* __p = (int*)malloc(%d * sizeof(int));\n", ind, s.words)
	fmt.Fprintf(b, "%s\tint __k;\n", ind)
	fmt.Fprintf(b, "%s\tfor (__k = 0; __k < %d; __k++) { __p[__k] = __k * %d; }\n", ind, s.words, s.mulC)
	fmt.Fprintf(b, "%s\tfor (__k = 0; __k < %d; __k += 17) { gl0 = gl0 * 31 + (long)__p[__k]; }\n", ind, s.words)
	fmt.Fprintf(b, "%s\tfree(__p);\n", ind)
	fmt.Fprintf(b, "%s}\n", ind)
}
func (s *sHeap) cloneStmt() stmt { c := *s; return &c }

// sCall evaluates a helper call for effect (result folded into a global so
// it is not dead).
type sCall struct {
	global string
	gty    typ
	call   *eCall
}

func (s *sCall) renderStmt(b *strings.Builder, ind string) {
	b.WriteString(ind)
	b.WriteString(s.global)
	b.WriteString(" += ")
	if s.gty != s.call.ty {
		fmt.Fprintf(b, "(%s)(", s.gty.c())
		s.call.render(b)
		b.WriteString(")")
	} else {
		s.call.render(b)
	}
	b.WriteString(";\n")
}
func (s *sCall) cloneStmt() stmt {
	return &sCall{global: s.global, gty: s.gty, call: s.call.clone().(*eCall)}
}

func renderBody(b *strings.Builder, body []stmt, ind string) {
	for _, s := range body {
		s.renderStmt(b, ind)
	}
}

func cloneBody(body []stmt) []stmt {
	if body == nil {
		return nil
	}
	out := make([]stmt, len(body))
	for i, s := range body {
		out[i] = s.cloneStmt()
	}
	return out
}

// ---- Program ----

// vdecl is a scalar variable the generator may read or write.
type vdecl struct {
	name string
	ty   typ
	init int64
}

// arr is a global array; lengths are powers of two so indexes mask.
type arr struct {
	name string
	ty   typ
	n    int
	dim2 bool
}

// fn is one generated helper function.
type fn struct {
	name   string
	ret    typ
	params []vdecl
	body   []stmt
	result expr
}

func (f *fn) cloneFn() *fn {
	c := &fn{name: f.name, ret: f.ret, params: f.params, body: cloneBody(f.body), result: f.result.clone()}
	return c
}

// Prog is a generated program: its own AST plus the fixed declarations the
// renderer always emits. Render is deterministic, so two Progs with equal
// structure produce byte-identical source.
type Prog struct {
	Seed      uint64
	FloatFree bool
	helpers   []*fn
	main      []stmt
	nLoopVars int
}

// Clone deep-copies the program (the shrinker mutates clones).
func (p *Prog) Clone() *Prog {
	c := &Prog{Seed: p.Seed, FloatFree: p.FloatFree, nLoopVars: p.nLoopVars}
	for _, h := range p.helpers {
		c.helpers = append(c.helpers, h.cloneFn())
	}
	c.main = cloneBody(p.main)
	return c
}

// Globals every program declares. gl0 additionally absorbs sHeap and sCall
// checksums.
var progGlobals = []vdecl{
	{"gi0", tInt, 3}, {"gi1", tInt, -7},
	{"gu0", tUInt, 9},
	{"gl0", tLong, 1}, {"gl1", tLong, 1023},
	{"gd0", tDouble, 0}, {"gd1", tDouble, 0},
}

var progArrays = []arr{
	{"AI", tInt, 64, false},
	{"AL", tLong, 16, false},
	{"AD", tDouble, 32, false},
	{"MI", tInt, 8, true},
}

// mainLocals is the fixed local pool of main; declaring the whole pool up
// front keeps shrunk programs compiling even when the only assignment to a
// variable was deleted.
var mainLocals = []vdecl{
	{"li0", tInt, 1}, {"li1", tInt, 2}, {"li2", tInt, 5}, {"li3", tInt, -3},
	{"lu0", tUInt, 77},
	{"ll0", tLong, 11}, {"ll1", tLong, -13},
	{"ld0", tDouble, 0}, {"ld1", tDouble, 0},
}

// Render emits the program as MiniC source.
func (p *Prog) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "/* difftest generated program, seed=%d floatfree=%v */\n", p.Seed, p.FloatFree)
	for _, g := range progGlobals {
		if p.FloatFree && g.ty == tDouble {
			continue
		}
		if g.ty == tDouble {
			fmt.Fprintf(&b, "double %s = %d.5;\n", g.name, g.init)
		} else {
			fmt.Fprintf(&b, "%s %s = %d;\n", g.ty.c(), g.name, g.init)
		}
	}
	for _, a := range progArrays {
		if p.FloatFree && a.ty == tDouble {
			continue
		}
		if a.dim2 {
			fmt.Fprintf(&b, "%s %s[%d][%d];\n", a.ty.c(), a.name, a.n, a.n)
		} else {
			fmt.Fprintf(&b, "%s %s[%d];\n", a.ty.c(), a.name, a.n)
		}
	}
	b.WriteString("\n")
	if !p.FloatFree {
		b.WriteString(`int __f2i(double d) {
	if (d != d) { return -1; }
	if (d > 1000000000.0) { return 1000000000; }
	if (d < -1000000000.0) { return -1000000000; }
	return (int)d;
}

`)
	}
	for _, h := range p.helpers {
		fmt.Fprintf(&b, "%s %s(", h.ret.c(), h.name)
		for i, pr := range h.params {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s %s", pr.ty.c(), pr.name)
		}
		b.WriteString(") {\n")
		p.renderLoopVarDecls(&b, h.body, "\t")
		renderBody(&b, h.body, "\t")
		b.WriteString("\treturn ")
		h.result.render(&b)
		b.WriteString(";\n}\n\n")
	}
	b.WriteString("int main() {\n")
	for _, l := range mainLocals {
		if p.FloatFree && l.ty == tDouble {
			continue
		}
		if l.ty == tDouble {
			fmt.Fprintf(&b, "\tdouble %s = %d.25;\n", l.name, l.init)
		} else {
			fmt.Fprintf(&b, "\t%s %s = %d;\n", l.ty.c(), l.name, l.init)
		}
	}
	p.renderLoopVarDecls(&b, p.main, "\t")
	b.WriteString("\tlong __h = 0;\n\tint __e0;\n\tint __e1;\n")
	renderBody(&b, p.main, "\t")
	// Epilogue: print every observable, fold final memory into a checksum.
	// This is the program-level "final memory checksum" observable — it
	// covers the JS backend too, whose engine-managed heap the VM-level
	// checksum cannot reach.
	for _, g := range progGlobals {
		if p.FloatFree && g.ty == tDouble {
			continue
		}
		switch g.ty {
		case tDouble:
			fmt.Fprintf(&b, "\tprint_f(%s);\n", g.name)
		case tLong:
			fmt.Fprintf(&b, "\tprint_i(%s);\n", g.name)
		default:
			fmt.Fprintf(&b, "\tprint_i((long)(%s));\n", g.name)
		}
	}
	b.WriteString("\tfor (__e0 = 0; __e0 < 64; __e0++) { __h = __h * 31 + (long)AI[__e0]; }\n")
	b.WriteString("\tfor (__e0 = 0; __e0 < 16; __e0++) { __h = __h * 31 + AL[__e0]; }\n")
	if !p.FloatFree {
		b.WriteString("\tfor (__e0 = 0; __e0 < 32; __e0++) { __h = __h * 31 + (long)__f2i(AD[__e0] * 1024.0); }\n")
	}
	b.WriteString("\tfor (__e0 = 0; __e0 < 8; __e0++) {\n")
	b.WriteString("\t\tfor (__e1 = 0; __e1 < 8; __e1++) { __h = __h * 31 + (long)MI[__e0][__e1]; }\n")
	b.WriteString("\t}\n")
	b.WriteString("\tprint_i(__h);\n")
	b.WriteString("\treturn (int)(__h & 127);\n}\n")
	return b.String()
}

// renderLoopVarDecls declares the loop variables a body uses (loop vars
// are per-statement, so declarations derive from the tree, surviving
// shrinks that delete the loops).
func (p *Prog) renderLoopVarDecls(b *strings.Builder, body []stmt, ind string) {
	seen := map[string]bool{}
	var walkE func(e expr)
	walkE = func(e expr) {
		switch x := e.(type) {
		case *eVar:
			// Variable uses count too: the shrinker splices loop bodies
			// into the parent, leaving references without the loop header.
			seen[x.name] = true
		case *eIdx:
			walkE(x.i)
			if x.j != nil {
				walkE(x.j)
			}
		case *eBin:
			walkE(x.x)
			walkE(x.y)
		case *eCmp:
			walkE(x.x)
			walkE(x.y)
		case *eUn:
			walkE(x.x)
		case *eCast:
			walkE(x.x)
		case *eF2I:
			walkE(x.x)
		case *eCall:
			for _, a := range x.args {
				walkE(a)
			}
		case *eCond:
			walkE(x.c)
			walkE(x.x)
			walkE(x.y)
		}
	}
	var walk func([]stmt)
	walk = func(ss []stmt) {
		for _, s := range ss {
			switch st := s.(type) {
			case *sFor:
				seen[st.v] = true
				walk(st.body)
			case *sWhile:
				seen[st.v] = true
				walk(st.body)
			case *sIf:
				walkE(st.cond)
				walk(st.then)
				walk(st.els)
			case *sSwitch:
				walkE(st.tag)
				for _, cs := range st.cases {
					walk(cs.body)
				}
				walk(st.def)
			case *sAssign:
				if st.idx != nil {
					walkE(st.idx)
				}
				if st.idx2 != nil {
					walkE(st.idx2)
				}
				walkE(st.rhs)
			case *sBreakIf:
				walkE(st.cond)
			case *sPrint:
				walkE(st.x)
			case *sCall:
				for _, a := range st.call.args {
					walkE(a)
				}
			}
		}
	}
	walk(body)
	// Deterministic order: loop vars are named i0..iN.
	for i := 0; i < p.nLoopVars; i++ {
		name := fmt.Sprintf("i%d", i)
		if seen[name] {
			fmt.Fprintf(b, "%sint %s = 0;\n", ind, name)
		}
	}
}

// ---- Generator ----

// GenOptions tunes program generation.
type GenOptions struct {
	// FloatFree excludes doubles entirely; such programs stay observable-
	// identical even under value-unsafe optimization (-Ofast), so the
	// cross-level oracle can include every level.
	FloatFree bool
	// StepBudget caps the estimated dynamic step count (0 = default 4000).
	StepBudget int
}

// gen carries generation state.
type gen struct {
	r       rng
	p       *Prog
	opts    GenOptions
	budget  int
	helpers []*fn // generated so far (callable)
	scope   scope
}

// scope is the variable set visible at the current generation point.
type scope struct {
	vars     []vdecl // readable/writable scalars
	loopVars []string
	inLoop   bool
	// contOK: the innermost loop is a canonical for, whose post-increment
	// still runs after a continue. In the countdown while/do-while forms a
	// continue would skip the decrement and never terminate.
	contOK   bool
	inHelper bool
}

// Generate builds the deterministic random program for a seed.
func Generate(seed uint64, opts GenOptions) *Prog {
	if opts.StepBudget <= 0 {
		opts.StepBudget = 4000
	}
	g := &gen{r: rng{s: seed}, opts: opts, budget: opts.StepBudget}
	g.p = &Prog{Seed: seed, FloatFree: opts.FloatFree}

	// Helper functions: 1-3, DAG call graph (each may call earlier ones).
	nHelpers := 1 + g.r.intn(3)
	for i := 0; i < nHelpers; i++ {
		g.genHelper(i)
	}

	// main body.
	g.scope = scope{vars: g.progVars(mainLocals)}
	g.p.main = g.genBody(2 + g.r.intn(5))

	// Guarantee one hot loop crossing the oracle's tier-up threshold (64),
	// calling a helper so call-hotness tiering fires too.
	h := g.helpers[g.r.intn(len(g.helpers))]
	hot := &sFor{v: g.newLoopVar(), n: 96 + g.r.intn(64)}
	call := g.helperCall(h, hot.v)
	acc, accT := "gl1", tLong
	if h.ret == tDouble {
		acc, accT = "gd1", tDouble
	}
	hot.body = []stmt{
		&sCall{global: acc, gty: accT, call: call},
		&sAssign{target: "AI", ty: tInt, mask: 63, idx: &eVar{tInt, hot.v},
			op: "+=", rhs: g.genExpr(tInt, 2)},
	}
	g.p.main = append(g.p.main, hot)

	// Occasionally exercise the allocator / memory growth (the larger
	// variant overruns the initial pages and forces memory.grow).
	if g.r.intn(3) == 0 {
		words := 256 + g.r.intn(1024)
		if g.r.intn(4) == 0 {
			words = 20000 + g.r.intn(20000)
		}
		g.p.main = append(g.p.main, &sHeap{words: words, mulC: int64(3 + g.r.intn(11))})
	}
	return g.p
}

// progVars returns globals plus the given locals, minus doubles when
// float-free.
func (g *gen) progVars(locals []vdecl) []vdecl {
	var out []vdecl
	for _, v := range progGlobals {
		if g.opts.FloatFree && v.ty == tDouble {
			continue
		}
		out = append(out, v)
	}
	for _, v := range locals {
		if g.opts.FloatFree && v.ty == tDouble {
			continue
		}
		out = append(out, v)
	}
	return out
}

func (g *gen) newLoopVar() string {
	name := fmt.Sprintf("i%d", g.p.nLoopVars)
	g.p.nLoopVars++
	return name
}

var helperRets = []typ{tInt, tLong, tDouble}

func (g *gen) genHelper(i int) {
	ret := helperRets[g.r.intn(len(helperRets))]
	if g.opts.FloatFree && ret == tDouble {
		ret = tLong
	}
	f := &fn{name: fmt.Sprintf("hf%d", i), ret: ret}
	f.params = []vdecl{{"a", ret, 0}, {"b", tInt, 0}}
	g.scope = scope{vars: append(g.progVars(nil), f.params...), inHelper: true}
	sb := g.budget
	g.budget = 200
	f.body = g.genBody(1 + g.r.intn(3))
	g.budget = sb
	f.result = g.genExpr(ret, 2)
	g.p.helpers = append(g.p.helpers, f)
	g.helpers = append(g.helpers, f)
}

// helperCall builds a call to h with in-scope argument expressions.
func (g *gen) helperCall(h *fn, loopVar string) *eCall {
	args := make([]expr, len(h.params))
	for i, pr := range h.params {
		if loopVar != "" && pr.ty == tInt {
			args[i] = &eVar{tInt, loopVar}
			loopVar = ""
			continue
		}
		args[i] = g.genExpr(pr.ty, 1)
	}
	return &eCall{ty: h.ret, name: h.name, args: args}
}

// genBody generates n statements at the current scope.
func (g *gen) genBody(n int) []stmt {
	var out []stmt
	for i := 0; i < n; i++ {
		if s := g.genStmt(); s != nil {
			out = append(out, s)
		}
	}
	return out
}

func (g *gen) genStmt() stmt {
	// assign, if, for, while, switch, print, call, break/continue
	w := []int{30, 12, 10, 6, 5, 6, 6, 0}
	if g.scope.inLoop {
		w[7] = 4
	}
	if g.budget < 40 {
		w[2], w[3] = 0, 0 // no more loops
	}
	switch g.r.pick(w) {
	case 0:
		return g.genAssign()
	case 1:
		g.budget -= 4
		s := &sIf{cond: g.genCond()}
		s.then = g.genBody(1 + g.r.intn(2))
		if g.r.intn(2) == 0 {
			s.els = g.genBody(1 + g.r.intn(2))
		}
		return s
	case 2:
		n := 2 + g.r.intn(14)
		inner := g.budget / (n + 1)
		if inner < 8 {
			return g.genAssign()
		}
		g.budget = inner
		s := &sFor{v: g.newLoopVar(), n: n}
		oldLV, oldIL, oldCO := g.scope.loopVars, g.scope.inLoop, g.scope.contOK
		g.scope.loopVars = append(append([]string{}, oldLV...), s.v)
		g.scope.inLoop = true
		g.scope.contOK = true
		s.body = g.genBody(1 + g.r.intn(3))
		g.scope.loopVars, g.scope.inLoop, g.scope.contOK = oldLV, oldIL, oldCO
		g.budget = inner
		return s
	case 3:
		n := 2 + g.r.intn(10)
		inner := g.budget / (n + 1)
		if inner < 8 {
			return g.genAssign()
		}
		g.budget = inner
		s := &sWhile{v: g.newLoopVar(), n: n, do: g.r.intn(3) == 0}
		oldIL, oldCO := g.scope.inLoop, g.scope.contOK
		g.scope.inLoop = true
		g.scope.contOK = false
		s.body = g.genBody(1 + g.r.intn(2))
		g.scope.inLoop, g.scope.contOK = oldIL, oldCO
		g.budget = inner
		return s
	case 4:
		g.budget -= 8
		s := &sSwitch{tag: g.genExpr(tInt, 2)}
		used := map[int]bool{}
		for k := 0; k < 2+g.r.intn(3); k++ {
			v := g.r.intn(8)
			if used[v] {
				continue
			}
			used[v] = true
			s.cases = append(s.cases, sCase{val: v, brk: g.r.intn(4) != 0,
				body: g.genBody(1)})
		}
		s.def = g.genBody(1)
		return s
	case 5:
		g.budget -= 2
		return &sPrint{x: g.genExpr(g.randType(), 2)}
	case 6:
		g.budget -= 30
		if len(g.helpers) == 0 || g.scope.inHelper {
			return g.genAssign()
		}
		h := g.helpers[g.r.intn(len(g.helpers))]
		gl, gt := "gl0", tLong
		if h.ret == tDouble {
			gl, gt = "gd0", tDouble
		}
		return &sCall{global: gl, gty: gt, call: g.helperCall(h, "")}
	default:
		g.budget -= 2
		cont := g.r.intn(3) == 0 && g.scope.contOK
		return &sBreakIf{cond: g.genCond(), cont: cont}
	}
}

func (g *gen) genAssign() stmt {
	g.budget -= 3
	// Array store vs scalar store.
	if g.r.intn(3) == 0 {
		a := g.randArray()
		s := &sAssign{target: a.name, ty: a.ty, mask: a.n - 1,
			idx: g.genExpr(tInt, 2), op: g.assignOp(a.ty), rhs: g.genExpr(a.ty, 3)}
		if a.dim2 {
			s.idx2 = g.genExpr(tInt, 1)
		}
		return s
	}
	v := g.randVar(0)
	return &sAssign{target: v.name, ty: v.ty, op: g.assignOp(v.ty),
		rhs: g.genExpr(v.ty, 3)}
}

func (g *gen) assignOp(t typ) string {
	ops := []string{"=", "=", "+=", "-=", "*="}
	return ops[g.r.intn(len(ops))]
}

func (g *gen) randType() typ {
	for {
		t := typ(g.r.intn(4))
		if g.opts.FloatFree && t == tDouble {
			continue
		}
		return t
	}
}

// randVar picks a scalar variable; want < 0 means any type.
func (g *gen) randVar(want typ) vdecl {
	cands := make([]vdecl, 0, len(g.scope.vars))
	for _, v := range g.scope.vars {
		if v.ty == want {
			cands = append(cands, v)
		}
	}
	if len(cands) == 0 {
		return g.scope.vars[g.r.intn(len(g.scope.vars))]
	}
	return cands[g.r.intn(len(cands))]
}

func (g *gen) randArray() arr {
	for {
		a := progArrays[g.r.intn(len(progArrays))]
		if g.opts.FloatFree && a.ty == tDouble {
			continue
		}
		return a
	}
}

func (g *gen) genCond() expr {
	t := g.randType()
	return &eCmp{op: []string{"<", ">", "<=", ">=", "==", "!="}[g.r.intn(6)],
		x: g.genExpr(t, 2), y: g.genExpr(t, 2)}
}

var (
	intLits  = []int64{0, 1, 2, -1, 3, 7, 13, 64, 255, 4096, 65535, 1000000007, 2147483647, -2147483647}
	longLits = []int64{0, 1, -1, 31, 255, 4294967296, 6364136223846793005, -9221120237041090561, 1442695040888963407}
	dblLits  = []float64{0.0, 1.0, -1.5, 0.5, 0.25, 3.14159265, 1e6, 1e-6, -273.15, 1e18}
)

// genExpr builds a well-typed expression of type t with depth budget d.
func (g *gen) genExpr(t typ, d int) expr {
	if d <= 0 || g.r.intn(4) == 0 {
		return g.genLeaf(t)
	}
	switch t {
	case tDouble:
		switch g.r.pick([]int{30, 10, 14, 8, 8}) {
		case 0:
			op := []string{"+", "-", "*", "/"}[g.r.intn(4)]
			return &eBin{ty: t, op: op, x: g.genExpr(t, d-1), y: g.genExpr(t, d-1)}
		case 1:
			return &eUn{ty: t, op: "-", x: g.genExpr(t, d-1)}
		case 2:
			fns := []string{"sin", "cos", "sqrt", "fabs", "floor", "ceil", "exp", "log"}
			return &eCall{ty: t, name: fns[g.r.intn(len(fns))], args: []expr{g.genExpr(t, d-1)}}
		case 3:
			name := []string{"pow", "fmod"}[g.r.intn(2)]
			return &eCall{ty: t, name: name,
				args: []expr{g.genExpr(t, d-1), g.genExpr(t, d-1)}}
		default:
			src := []typ{tInt, tLong}[g.r.intn(2)]
			return &eCast{ty: t, x: g.genExpr(src, d-1)}
		}
	default:
		switch g.r.pick([]int{34, 8, 8, 8, 6, 6}) {
		case 0:
			ops := []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"}
			op := ops[g.r.intn(len(ops))]
			return &eBin{ty: t, op: op, x: g.genExpr(t, d-1), y: g.genExpr(t, d-1)}
		case 1:
			op := []string{"-", "~"}[g.r.intn(2)]
			if t == tInt && g.r.intn(4) == 0 {
				op = "!"
			}
			return &eUn{ty: t, op: op, x: g.genExpr(t, d-1)}
		case 2:
			// Cross-width casts: wrap/extend are deterministic everywhere.
			switch t {
			case tInt:
				src := []typ{tLong, tUInt}[g.r.intn(2)]
				return &eCast{ty: t, x: g.genExpr(src, d-1)}
			case tUInt:
				return &eCast{ty: t, x: g.genExpr(tInt, d-1)}
			default:
				src := []typ{tInt, tUInt}[g.r.intn(2)]
				return &eCast{ty: t, x: g.genExpr(src, d-1)}
			}
		case 3:
			if g.opts.FloatFree {
				return &eBin{ty: t, op: "+", x: g.genExpr(t, d-1), y: g.genLeaf(t)}
			}
			// Guarded float→int, widened as needed.
			f := &eF2I{x: g.genExpr(tDouble, d-1)}
			if t == tInt {
				return f
			}
			return &eCast{ty: t, x: f}
		case 4:
			c := g.genCond()
			if t == tInt {
				return &eCond{ty: t, c: c, x: g.genExpr(t, d-1), y: g.genExpr(t, d-1)}
			}
			return &eCond{ty: t, c: c, x: g.genExpr(t, d-1), y: g.genExpr(t, d-1)}
		default:
			if t == tInt {
				return g.genCond()
			}
			return &eCast{ty: t, x: g.genCond()}
		}
	}
}

func (g *gen) genLeaf(t typ) expr {
	// literal / scalar var / array load / loop var
	w := []int{8, 12, 6, 0}
	if len(g.scope.loopVars) > 0 && t == tInt {
		w[3] = 8
	}
	switch g.r.pick(w) {
	case 0:
		switch t {
		case tDouble:
			if g.r.intn(2) == 0 {
				return &eLit{ty: t, f: dblLits[g.r.intn(len(dblLits))]}
			}
			return &eLit{ty: t, f: float64(g.r.intn(4000)-2000) / 16.0}
		case tLong:
			if g.r.intn(2) == 0 {
				return &eLit{ty: t, i: longLits[g.r.intn(len(longLits))]}
			}
			return &eLit{ty: t, i: int64(g.r.next())}
		case tUInt:
			return &eLit{ty: t, i: int64(uint32(g.r.next()))}
		default:
			if g.r.intn(2) == 0 {
				return &eLit{ty: t, i: intLits[g.r.intn(len(intLits))]}
			}
			return &eLit{ty: t, i: int64(g.r.intn(2000001) - 1000000)}
		}
	case 1:
		v := g.randVar(t)
		if v.ty != t {
			// Cross-type fallback: float sources go through the trunc
			// guard, everything else through a plain (deterministic) cast.
			if v.ty == tDouble {
				f := &eF2I{x: &eVar{tDouble, v.name}}
				if t == tInt {
					return f
				}
				return &eCast{ty: t, x: f}
			}
			return &eCast{ty: t, x: &eVar{v.ty, v.name}}
		}
		return &eVar{t, v.name}
	case 2:
		var cands []arr
		for _, a := range progArrays {
			if a.ty == t {
				cands = append(cands, a)
			}
		}
		if len(cands) == 0 {
			return &eLit{ty: t, i: 1}
		}
		a := cands[g.r.intn(len(cands))]
		idx := g.genLeaf(tInt)
		e := &eIdx{ty: t, arr: a.name, mask: a.n - 1, i: idx}
		if a.dim2 {
			e.j = g.genLeaf(tInt)
		}
		return e
	default:
		return &eVar{tInt, g.scope.loopVars[g.r.intn(len(g.scope.loopVars))]}
	}
}
