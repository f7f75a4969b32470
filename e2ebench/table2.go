package main

import (
	_ "embed"
	"fmt"
	"slices"
	"strings"
	"time"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/codegen"
	"wasmbench/internal/compiler"
	"wasmbench/internal/core"
	"wasmbench/internal/ir"
)

// table2Programs is the subset BenchmarkTable2OptLevels regenerates Table 2
// on; table2Levels are the levels core.RunOptLevels measures.
var (
	table2Programs = []string{"gemm", "covariance", "jacobi-2d", "atax", "floyd-warshall",
		"ADPCM", "SHA", "DFMUL", "MIPS"}
	table2Levels = []ir.OptLevel{ir.O1, ir.O2, ir.Oz, ir.Ofast}
)

// expectedTable2 is RenderTable2's output on the subset. Table 2 is built
// from virtual metrics only, so every regeneration must reproduce it
// byte for byte.
//
//go:embed testdata/table2.txt
var expectedTable2 string

func table2Options() (core.Options, error) {
	var opts core.Options
	for _, n := range table2Programs {
		b, err := benchsuite.ByName(n)
		if err != nil {
			return opts, err
		}
		opts.Benchmarks = append(opts.Benchmarks, b)
	}
	return opts, nil
}

// regenerate is one unit of the table2 workload: run the experiment and
// render the table.
func regenerate(opts core.Options) (*core.OptLevelsResult, string, error) {
	r, err := core.RunOptLevels(opts)
	if err != nil {
		return nil, "", err
	}
	return r, r.RenderTable2(), nil
}

func checkTable(out string, err error, t *tally, diag *strings.Builder) {
	switch {
	case err != nil:
		t.record(outFailed)
		fmt.Fprintf(diag, "table2: %v\n", err)
	case out != expectedTable2:
		t.record(outWrong)
		fmt.Fprintf(diag, "table2 differs from testdata/table2.txt:\n%s", out)
	default:
		t.record(outOK)
	}
}

// table2Run is what one untraced table2 run measured.
type table2Run struct {
	setup   float64   // seconds: the process's first regeneration
	walls   []float64 // seconds per measured regeneration
	ok      int       // measured regenerations that rendered the expected table
	peakRSS float64
}

// runTable2 regenerates Table 2 once as set-up (the cold first
// regeneration of a fresh process), then as many more times as fit in the
// budget.
func runTable2(opts core.Options, budget time.Duration, t *tally, diag *strings.Builder) (*table2Run, error) {
	run := &table2Run{}
	t0 := time.Now()
	_, out, err := regenerate(opts)
	run.setup = time.Since(t0).Seconds()
	checkTable(out, err, t, diag)
	start := time.Now()
	for {
		t1 := time.Now()
		_, out, err := regenerate(opts)
		run.walls = append(run.walls, time.Since(t1).Seconds())
		before := t.OK
		checkTable(out, err, t, diag)
		run.ok += t.OK - before
		// Stop before a regeneration that would overrun the budget.
		if time.Since(start)+time.Duration(median(run.walls)*float64(time.Second)) > budget {
			break
		}
	}
	var err2 error
	run.peakRSS, err2 = peakRSSMB()
	return run, err2
}

// replayTable2 re-executes every Table 2 cell through the calls
// core.RunOptLevels makes — compile, Wasm and JS measurement on desktop
// Chrome, the x86 backend — on `clients` workers, timing each call when sp
// is non-nil. Each cell is checked: the Wasm and JS programs must print
// what the x86 backend prints for the same artifact and exit alike.
func replayTable2(opts core.Options, sp *spans, t *tally, diag *strings.Builder) time.Duration {
	type job struct {
		b  *benchsuite.Benchmark
		lv ir.OptLevel
	}
	var jobs []job
	for _, b := range opts.Benchmarks {
		for _, lv := range table2Levels {
			jobs = append(jobs, job{b, lv})
		}
	}
	chrome := browser.Chrome(browser.Desktop)
	outs := make([]outcome, len(jobs))
	msgs := make([]string, len(jobs))
	var per [clients]*spans
	if sp != nil {
		for w := range per {
			per[w] = newSpans()
		}
	}
	t0 := time.Now()
	parallel(len(jobs), func(w, i int) {
		s := per[w]
		j := jobs[i]
		op := s.start()
		defer s.op(op)
		outs[i], msgs[i] = table2Cell(j.b, j.lv, chrome, s)
	})
	wall := time.Since(t0)
	for _, p := range per {
		sp.merge(p)
	}
	for i, o := range outs {
		t.record(o)
		if o != outOK {
			fmt.Fprintf(diag, "table2 cell %s %v: %s\n", jobs[i].b.Name, jobs[i].lv, msgs[i])
		}
	}
	return wall
}

func table2Cell(b *benchsuite.Benchmark, lv ir.OptLevel, chrome *browser.Profile, s *spans) (outcome, string) {
	opts := compiler.Options{Opt: lv, Defines: b.Defines(benchsuite.M),
		HeapLimit: b.HeapLimitBytes(benchsuite.M), ModuleName: b.Name}
	if pt := s.tracer(); pt != nil {
		opts.Tracer = pt // a nil *passTracer must not become a non-nil Tracer
	}
	t := s.start()
	art, err := compiler.Compile(b.Source, opts)
	s.end(lCompile, t)
	if err != nil {
		return outFailed, err.Error()
	}
	t = s.start()
	wm, err := chrome.MeasureWasm(art)
	s.end(lExec, t)
	if err != nil {
		return outFailed, err.Error()
	}
	s.add("wasmvm.steps", float64(wm.Result.Steps))
	t = s.start()
	jm, err := chrome.MeasureJS(art)
	s.end(lJS, t)
	if err != nil {
		return outFailed, err.Error()
	}
	s.add("jsvm.steps", float64(jm.Result.Steps))
	s.add("jsvm.gc_count", float64(jm.Result.GCs))
	t = s.start()
	xr, err := compiler.RunX86(art, codegen.DefaultX86Config())
	s.end(lX86, t)
	if err != nil {
		return outFailed, err.Error()
	}
	s.add("x86vm.steps", float64(xr.Steps))
	for _, got := range []struct {
		engine string
		r      *compiler.Result
	}{{"wasm", wm.Result}, {"js", jm.Result}} {
		if got.r.Exit != xr.Exit || !slices.Equal(got.r.OutputStrings(), xr.OutputStrings()) {
			return outWrong, fmt.Sprintf("%s exit %d output %v; x86 exit %d output %v",
				got.engine, got.r.Exit, got.r.OutputStrings(), xr.Exit, xr.OutputStrings())
		}
	}
	return outOK, ""
}
