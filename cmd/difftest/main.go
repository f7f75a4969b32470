// Command difftest drives the cross-backend differential fuzzer: it
// generates seeded MiniC programs, compiles each at every requested opt
// level, runs the wasmvm/jsvm/x86vm backend matrix, and reports any
// observable divergence. On divergence it can minimize the program and
// write a regression into the corpus directory.
//
// Usage:
//
//	difftest -seeds 500                      # seeds 1..500, both float modes
//	difftest -seed 212                       # replay one seed
//	difftest -duration 30s                   # run until the clock, not a count
//	difftest -opt O0,O2,O3 -backends x86,js  # narrow the matrix
//	difftest -full                           # all 9 wasmvm configurations
//	difftest -minimize -corpus-dir internal/difftest/corpus
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"wasmbench/internal/compiler"
	"wasmbench/internal/difftest"
	"wasmbench/internal/ir"
)

func main() {
	seeds := flag.Int("seeds", 100, "number of generator seeds to sweep (1..N)")
	oneSeed := flag.Uint64("seed", 0, "check a single seed instead of a sweep")
	duration := flag.Duration("duration", 0, "run new seeds until this much time has passed (overrides -seeds)")
	optList := flag.String("opt", "", "comma-separated opt levels (default O0,O3)")
	backends := flag.String("backends", "", "comma-separated backend families: wasm,js,x86 (default all)")
	toolchains := flag.String("toolchains", "", "comma-separated toolchains: cheerp,emscripten (default cheerp)")
	full := flag.Bool("full", false, "run the full 9-config wasmvm matrix: tier mode x {stack, aot}, plus pooled aot")
	noCrossLevel := flag.Bool("no-xlevel", false, "skip the cross-level invariance check")
	floatMode := flag.String("floats", "both", "float generation: both, on, off")
	minimize := flag.Bool("minimize", false, "on divergence: shrink the program and write a corpus regression")
	corpusDir := flag.String("corpus-dir", "internal/difftest/corpus", "directory for minimized regressions (-minimize)")
	shrinkBudget := flag.Int("shrink-attempts", 2000, "max candidate programs the minimizer may try")
	verbose := flag.Bool("v", false, "print every seed checked, not just divergences")
	flag.Parse()

	orc := difftest.DefaultOracle()
	orc.FullWasmMatrix = *full
	orc.CrossLevel = !*noCrossLevel
	if *optList != "" {
		for _, s := range strings.Split(*optList, ",") {
			lv, err := ir.ParseOptLevel(strings.TrimSpace(s))
			if err != nil {
				fatal(err)
			}
			orc.Levels = append(orc.Levels, lv)
		}
	}
	if *backends != "" {
		for _, s := range strings.Split(*backends, ",") {
			f := strings.TrimSpace(strings.ToLower(s))
			switch f {
			case "wasm", "js", "x86":
				orc.Families = append(orc.Families, f)
			default:
				fatal(fmt.Errorf("unknown backend family %q (want wasm, js, or x86)", s))
			}
		}
	}
	if *toolchains != "" {
		for _, s := range strings.Split(*toolchains, ",") {
			switch strings.TrimSpace(strings.ToLower(s)) {
			case "cheerp":
				orc.Toolchains = append(orc.Toolchains, compiler.Cheerp)
			case "emscripten":
				orc.Toolchains = append(orc.Toolchains, compiler.Emscripten)
			default:
				fatal(fmt.Errorf("unknown toolchain %q (want cheerp or emscripten)", s))
			}
		}
	}

	var floatModes []bool
	switch *floatMode {
	case "both":
		floatModes = []bool{false, true}
	case "on":
		floatModes = []bool{false}
	case "off":
		floatModes = []bool{true}
	default:
		fatal(fmt.Errorf("unknown -floats mode %q (want both, on, off)", *floatMode))
	}

	checked, divergent := 0, 0
	start := time.Now()
	checkSeed := func(seed uint64) {
		for _, floatFree := range floatModes {
			gopts := difftest.GenOptions{FloatFree: floatFree}
			rep, err := orc.CheckSeed(seed, gopts)
			checked++
			if err != nil {
				fmt.Fprintf(os.Stderr, "seed %d floatfree=%v: compile error: %v\n", seed, floatFree, err)
				divergent++
				continue
			}
			if rep.OK() {
				if *verbose {
					fmt.Printf("seed %d floatfree=%v: ok (%d runs)\n", seed, floatFree, rep.Runs)
				}
				continue
			}
			divergent++
			fmt.Printf("seed %d floatfree=%v: DIVERGENT\n%s\n", seed, floatFree, rep.Summary())
			if *minimize {
				minimizeSeed(orc, seed, gopts, *shrinkBudget, *corpusDir)
			}
		}
	}

	switch {
	case *oneSeed != 0:
		checkSeed(*oneSeed)
	case *duration > 0:
		for seed := uint64(1); time.Since(start) < *duration; seed++ {
			checkSeed(seed)
		}
	default:
		for seed := uint64(1); seed <= uint64(*seeds); seed++ {
			checkSeed(seed)
		}
	}

	fmt.Printf("difftest: %d programs checked in %v, divergent: %d\n",
		checked, time.Since(start).Round(time.Millisecond), divergent)
	if divergent > 0 {
		os.Exit(1)
	}
}

// minimizeSeed shrinks a divergent seed program against "the oracle still
// reports a divergence" and writes the result as a corpus regression.
func minimizeSeed(orc *difftest.Oracle, seed uint64, gopts difftest.GenOptions, budget int, dir string) {
	prog := difftest.Generate(seed, gopts)
	repro := func(p *difftest.Prog) bool {
		rep, err := orc.Check("shrink", p.Render())
		return err == nil && !rep.OK()
	}
	if !repro(prog) {
		fmt.Fprintln(os.Stderr, "  minimize: divergence did not reproduce on regeneration")
		return
	}
	before := len(prog.Render())
	min := difftest.Shrink(prog, repro, budget)
	rep, _ := orc.Check("min", min.Render())
	note := fmt.Sprintf("seed %d floatfree=%v, %d -> %d bytes", seed, gopts.FloatFree, before, len(min.Render()))
	if rep != nil && len(rep.Divergences) > 0 {
		note += "\n" + rep.Divergences[0].String()
	}
	name := fmt.Sprintf("regress-seed-%d", seed)
	if gopts.FloatFree {
		name += "-ff"
	}
	path, err := difftest.WriteCorpusEntry(dir, name, note, min.Render())
	if err != nil {
		fmt.Fprintf(os.Stderr, "  minimize: write corpus entry: %v\n", err)
		return
	}
	fmt.Printf("  minimized %d -> %d bytes, wrote %s\n", before, len(min.Render()), path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "difftest:", err)
	os.Exit(2)
}
