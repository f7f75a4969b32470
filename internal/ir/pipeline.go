package ir

import "fmt"

// OptLevel is a compiler optimization level (§2.1.2, Fig. 1).
type OptLevel int

// Optimization levels.
const (
	O0 OptLevel = iota
	O1
	O2
	O3
	O4
	Os
	Oz
	Ofast
)

// ParseOptLevel parses a -O flag value ("0", "1", "2", "3", "4", "s", "z",
// "fast").
func ParseOptLevel(s string) (OptLevel, error) {
	switch s {
	case "0", "O0", "-O0":
		return O0, nil
	case "1", "O1", "-O1":
		return O1, nil
	case "2", "O2", "-O2":
		return O2, nil
	case "3", "O3", "-O3":
		return O3, nil
	case "4", "O4", "-O4":
		return O4, nil
	case "s", "Os", "-Os":
		return Os, nil
	case "z", "Oz", "-Oz":
		return Oz, nil
	case "fast", "Ofast", "-Ofast":
		return Ofast, nil
	}
	return O0, fmt.Errorf("ir: unknown optimization level %q", s)
}

func (l OptLevel) String() string {
	switch l {
	case O0:
		return "-O0"
	case O1:
		return "-O1"
	case O2:
		return "-O2"
	case O3:
		return "-O3"
	case O4:
		return "-O4"
	case Os:
		return "-Os"
	case Oz:
		return "-Oz"
	case Ofast:
		return "-Ofast"
	}
	return "-O?"
}

// PassList returns the pass names the level runs, in order (for reporting
// and tests).
func (l OptLevel) PassList() []string {
	switch l {
	case O0:
		return nil
	case O1:
		return []string{"constfold", "licm", "constfold", "dce", "globalopt"}
	case O2:
		return []string{"constfold", "rematconst", "inline", "licm",
			"vectorize-loops", "libcalls-shrinkwrap", "constfold", "dce", "globalopt"}
	case O3:
		return []string{"constfold", "rematconst", "inline", "argpromotion",
			"licm", "vectorize-loops", "libcalls-shrinkwrap", "constfold", "dce", "globalopt"}
	case O4:
		return []string{"constfold", "rematconst", "inline", "inline",
			"argpromotion", "licm", "vectorize-loops", "libcalls-shrinkwrap",
			"constfold", "dce", "globalopt"}
	case Os:
		return []string{"constfold", "rematconst", "inline", "licm",
			"constfold", "dce", "globalopt"}
	case Oz:
		return []string{"constfold", "licm", "consthoist", "constfold", "dce", "globalopt"}
	case Ofast:
		return []string{"constfold", "rematconst", "inline", "argpromotion",
			"licm", "vectorize-loops", "fastmath", "libcalls-shrinkwrap",
			"constfold", "dce", "globalopt(no-deadstore-sweep)"}
	}
	return nil
}

// inlineBudget is the per-level inlining body-size budget.
func (l OptLevel) inlineBudget() int {
	switch l {
	case O2, Os:
		return 40
	case O3, Ofast:
		return 80
	case O4:
		return 120
	}
	return 0
}

// passStep is one named pipeline stage.
type passStep struct {
	name string
	fn   func(*Program)
}

// passSeq returns the exact pass sequence Optimize runs for the level.
// (PassList is the coarser documented summary; this is the real schedule,
// including repeated cleanup passes.)
func passSeq(level OptLevel) []passStep {
	cf := passStep{"constfold", ConstFold}
	dce := passStep{"dce", DCE}
	licm := passStep{"licm", LICM}
	remat := passStep{"rematconst", RematConst}
	inline := passStep{"inline", func(p *Program) { Inline(p, level.inlineBudget()) }}
	argpromo := passStep{"argpromotion", ArgPromote}
	vec := passStep{"vectorize-loops", Vectorize}
	shrink := passStep{"libcalls-shrinkwrap", ShrinkwrapLibcalls}
	gopt := passStep{"globalopt", func(p *Program) { GlobalOpt(p, false) }}

	switch level {
	case O0:
		return nil
	case O1:
		return []passStep{cf, licm, cf, dce, gopt}
	case O2:
		return []passStep{cf, remat, cf, inline, licm, vec, shrink, cf, dce, gopt, cf, dce}
	case Os:
		return []passStep{cf, remat, cf, inline, licm, cf, dce, gopt, cf, dce}
	case O3:
		return []passStep{cf, remat, cf, inline, argpromo, licm, vec, shrink, cf, dce, gopt, cf, dce}
	case O4:
		return []passStep{cf, remat, cf, inline, inline, argpromo, licm, vec, shrink, cf, dce, gopt, cf, dce}
	case Oz:
		return []passStep{cf, licm, {"consthoist", ConstHoist}, cf, dce, gopt}
	case Ofast:
		return []passStep{cf, remat, cf, inline, argpromo, licm, vec,
			{"fastmath", FastMath}, shrink, cf, dce,
			// The modeled pass-ordering bug: fast-math suppresses the
			// dead-global-store sweep.
			{"globalopt(no-deadstore-sweep)", func(p *Program) { GlobalOpt(p, true) }},
			cf, dce}
	}
	return nil
}

// Optimize runs the pass pipeline for the level, in place.
//
// The -Ofast pipeline intentionally skips the dead-global-store sweep:
// the paper's Fig. 7 traces ADPCM's slowdown at -Ofast to exactly this
// class of pass-ordering regression (cf. LLVM PR37449), where fast-math
// function attributes suppress a late cleanup that -O2 still performs.
func Optimize(p *Program, level OptLevel) {
	OptimizeWithHook(p, level, nil)
}

// PassHook observes one completed optimization pass: its name and the
// program's node counts before and after. Node counts are deterministic,
// so hooks can stand in for pass timings in reproducible traces.
type PassHook func(name string, nodesBefore, nodesAfter int)

// OptimizeWithHook runs the pass pipeline for the level, invoking hook
// after every pass. A nil hook skips the node counting entirely.
func OptimizeWithHook(p *Program, level OptLevel, hook PassHook) {
	before := -1
	for _, s := range passSeq(level) {
		if hook == nil {
			s.fn(p)
			continue
		}
		if before < 0 {
			before = NodeCount(p)
		}
		s.fn(p)
		// Passes run back to back, so one pass's after is the next's before.
		after := NodeCount(p)
		hook(s.name, before, after)
		before = after
	}
}

// NodeCount returns the program's statement-node count across all
// functions — the deterministic work-size proxy used for pass reporting.
func NodeCount(p *Program) int {
	n := 0
	for _, f := range p.Funcs {
		n += countStmts(f.Body)
	}
	return n
}
