package difftest

import (
	"strings"
	"testing"

	"wasmbench/internal/ir"
)

// smokeSeeds is the fixed seed range `make difftest-smoke` sweeps: 100
// seeds × {float, float-free} = 200 generated programs, every one through
// the default oracle (x86 + 5 wasmvm configs including one AOT-tier
// config + 2 jsvm tiers at -O0 and -O3, plus the cross-level check). Under -race the range shrinks so the
// tier-1 `go test -race ./...` gate stays fast; the dedicated
// difftest-smoke target runs without -race and covers the full range.
func smokeSeeds() uint64 {
	if raceEnabled {
		return 16
	}
	return 100
}

func TestSmoke(t *testing.T) {
	orc := DefaultOracle()
	checked := 0
	for seed := uint64(1); seed <= smokeSeeds(); seed++ {
		for _, ff := range []bool{false, true} {
			rep, err := orc.CheckSeed(seed, GenOptions{FloatFree: ff})
			if err != nil {
				t.Fatalf("seed %d floatfree=%v: %v", seed, ff, err)
			}
			if !rep.OK() {
				t.Errorf("seed %d floatfree=%v:\n%s", seed, ff, rep.Summary())
			}
			checked++
		}
	}
	t.Logf("checked %d generated programs", checked)
}

// TestCorpus replays every committed corpus program — minimized regressions
// for fixed divergences plus generator seed programs — across the backend
// matrix with zero tolerance. Without -race the wasm side runs the full
// 9-config tier mode × {stack, aot} matrix plus pooled runs.
func TestCorpus(t *testing.T) {
	entries := Corpus()
	if len(entries) == 0 {
		t.Fatal("embedded corpus is empty")
	}
	orc := DefaultOracle()
	orc.FullWasmMatrix = !raceEnabled
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			rep, err := orc.Check(e.Name, e.Source)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if !rep.OK() {
				t.Errorf("%s", rep.Summary())
			}
		})
	}
}

// TestGeneratorDeterministic: a seed names the same program forever; the
// corpus, the fuzz targets, and every reported divergence depend on it.
func TestGeneratorDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		for _, ff := range []bool{false, true} {
			a := Generate(seed, GenOptions{FloatFree: ff}).Render()
			b := Generate(seed, GenOptions{FloatFree: ff}).Render()
			if a != b {
				t.Fatalf("seed %d floatfree=%v: two generations differ", seed, ff)
			}
		}
	}
	if Generate(1, GenOptions{}).Render() == Generate(2, GenOptions{}).Render() {
		t.Fatal("distinct seeds produced identical programs")
	}
}

// TestGeneratorFloatFree: FloatFree programs must not mention doubles at
// all — the cross-level oracle relies on it to include -Ofast.
func TestGeneratorFloatFree(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		src := Generate(seed, GenOptions{FloatFree: true}).Render()
		for _, tok := range []string{"double", "print_f", "0.5"} {
			if strings.Contains(src, tok) {
				t.Fatalf("seed %d: float-free program contains %q", seed, tok)
			}
		}
	}
}

// TestShrinkMechanics drives the minimizer with a synthetic reproduction
// predicate — "still compiles, still runs on x86, still prints at least
// five events" — and checks the greedy loop only ever keeps
// predicate-satisfying candidates while making the program smaller.
func TestShrinkMechanics(t *testing.T) {
	orc := &Oracle{Families: []string{"x86"}, Levels: []ir.OptLevel{ir.O0}}
	repro := func(p *Prog) bool {
		rep, err := orc.Check("shrink", p.Render())
		if err != nil {
			return false
		}
		for _, outs := range rep.Outcomes {
			for _, oc := range outs {
				if oc.Err != nil || len(oc.Output) < 5 {
					return false
				}
			}
		}
		return rep.OK()
	}
	p := Generate(7, GenOptions{})
	if !repro(p) {
		t.Fatal("seed 7 does not satisfy the synthetic predicate")
	}
	before := len(p.Render())
	m := Shrink(p, repro, 600)
	after := len(m.Render())
	if !repro(m) {
		t.Fatal("shrunk program no longer satisfies the predicate")
	}
	if after > before {
		t.Fatalf("shrink grew the program: %d -> %d bytes", before, after)
	}
	t.Logf("shrunk %d -> %d bytes", before, after)
}

// TestOracleFlagsDivergence checks the comparison logic itself on
// fabricated outcomes: exit, output, trap, and the within-wasm step and
// memory invariants must each be flagged.
func TestOracleFlagsDivergence(t *testing.T) {
	base := func() []Outcome {
		return []Outcome{
			{Backend: "x86", Family: "x86", Exit: 1, Output: []string{"i:1"}, Steps: 10, MemSum: 42},
			{Backend: "wasm/a", Family: "wasm", Exit: 1, Output: []string{"i:1"}, Steps: 20, MemSum: 7},
			{Backend: "wasm/b", Family: "wasm", Exit: 1, Output: []string{"i:1"}, Steps: 20, MemSum: 7},
			{Backend: "js/jit", Family: "js", Exit: 1, Output: []string{"i:1"}, Steps: 5},
		}
	}
	if divs := compareOutcomes("p", ir.O0, 0, base()); len(divs) != 0 {
		t.Fatalf("agreeing outcomes flagged: %v", divs)
	}
	mut := []struct {
		name  string
		field string
		mod   func([]Outcome)
	}{
		{"exit", "exit", func(o []Outcome) { o[3].Exit = 2 }},
		{"output", "output", func(o []Outcome) { o[1].Output = []string{"i:9"} }},
		{"trap", "trap", func(o []Outcome) { o[2].Err = errTest }},
		{"steps", "steps", func(o []Outcome) { o[2].Steps = 21 }},
		{"memory", "memory", func(o []Outcome) { o[2].MemSum = 8 }},
	}
	for _, m := range mut {
		t.Run(m.name, func(t *testing.T) {
			outs := base()
			m.mod(outs)
			divs := compareOutcomes("p", ir.O0, 0, outs)
			if len(divs) == 0 {
				t.Fatalf("%s divergence not flagged", m.name)
			}
			found := false
			for _, d := range divs {
				if d.Field == m.field {
					found = true
				}
			}
			if !found {
				t.Fatalf("expected field %q in %v", m.field, divs)
			}
		})
	}
}

var errTest = &testErr{}

type testErr struct{}

func (*testErr) Error() string { return "synthetic trap" }
