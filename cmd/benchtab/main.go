// Command benchtab regenerates the paper's tables and figures.
//
// Usage:
//
//	benchtab -exp table2       # §4.2.1 optimization-level geomeans
//	benchtab -exp fig5         # per-benchmark opt ratios (incl. fig6 x86)
//	benchtab -exp fig11        # five-number summaries
//	benchtab -exp compilers    # §4.2.2 Cheerp vs Emscripten
//	benchtab -exp table3       # §4.3.1 Chrome input sizes (+ table4 memory)
//	benchtab -exp table5       # §4.3.2 Firefox input sizes (+ table6 memory)
//	benchtab -exp fig9         # per-benchmark input-size series
//	benchtab -exp fig10        # §4.4.1 JIT improvement
//	benchtab -exp table7       # §4.4.2 tier configurations
//	benchtab -exp table8       # §4.5 browsers & platforms
//	benchtab -exp fig12        # per-benchmark deployment series
//	benchtab -exp ctxswitch    # §4.5 context-switch microbenchmark
//	benchtab -exp table9       # §4.6.1 manual JavaScript
//	benchtab -exp table10      # §4.6.2 real-world applications
//	benchtab -exp table12      # Appendix D operation counts (table10's runs)
//	benchtab -exp all          # everything above
//
// Use -bench to restrict to a comma-separated benchmark subset and -sizes
// to restrict input classes (e.g. -sizes XS,M).
//
// The -metrics grid run runs every cell once, under the configuration its
// label names. -deadline and -step-limit bound each cell in wall-clock and
// virtual time, -resume checkpoints completed cells to a file and restores
// them on the next invocation, and -faults/-fault-seed inject a
// deterministic fault plan for drills. Any failed cell makes benchtab exit
// nonzero with a failure summary on stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/core"
	"wasmbench/internal/faultinject"
	"wasmbench/internal/harness"
	"wasmbench/internal/ir"
	"wasmbench/internal/obsv"
	"wasmbench/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "", "experiment id (table2, fig5, fig9, ... or 'all')")
	benchFilter := flag.String("bench", "", "comma-separated benchmark subset")
	sizeFilter := flag.String("sizes", "", "comma-separated size subset (XS,S,M,L,XL)")
	metricsFlag := flag.Bool("metrics", false, "run the suite cell grid and print per-cell wall time, queue depth, and worker utilization")
	traceOut := flag.String("trace-out", "", "with -metrics: also write a Chrome trace_event JSON file of the run")
	workers := flag.Int("workers", 0, "worker pool size for -metrics (0 = default)")
	compileCache := flag.Bool("compile-cache", true, "share one compiled artifact per unique (source, size, opt, toolchain, target); disable for cold-compile studies")
	resume := flag.String("resume", "", "with -metrics: checkpoint file; completed cells are restored from it and new successes appended, so an interrupted run picks up where it left off")
	deadline := flag.Duration("deadline", 0, "with -metrics: wall-clock budget per cell (0 = none)")
	stepLimit := flag.Uint64("step-limit", 0, "with -metrics: dynamic instruction budget per measurement (0 = profile default)")
	faultSpec := flag.String("faults", "", "with -metrics: deterministic fault plan, e.g. 'wasm.stall:count=2,stall=100ms;harness.worker-panic:prob=0.05'")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the -faults plan")
	telemetryAddr := flag.String("telemetry", "", "with -metrics: serve live telemetry on this address during the sweep (/metrics, /debug/trace, /debug/profile, /debug/cells, /healthz); ':0' picks a free port")
	telemetrySnap := flag.String("telemetry-snapshot", "", "with -metrics: write a metrics snapshot when the sweep ends ('-' = text to stdout; a path ending in .json gets JSON)")
	flag.Parse()
	if *exp == "" && !*metricsFlag && *traceOut == "" {
		flag.Usage()
		os.Exit(2)
	}

	opts := core.Options{}
	if *benchFilter != "" {
		for _, name := range strings.Split(*benchFilter, ",") {
			b, err := benchsuite.ByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			opts.Benchmarks = append(opts.Benchmarks, b)
		}
	}
	if *sizeFilter != "" {
		bySuffix := map[string]benchsuite.Size{
			"XS": benchsuite.XS, "S": benchsuite.S, "M": benchsuite.M,
			"L": benchsuite.L, "XL": benchsuite.XL,
		}
		for _, s := range strings.Split(*sizeFilter, ",") {
			sz, ok := bySuffix[strings.ToUpper(strings.TrimSpace(s))]
			if !ok {
				fatal(fmt.Errorf("unknown size %q", s))
			}
			opts.Sizes = append(opts.Sizes, sz)
		}
	}

	if *metricsFlag || *traceOut != "" {
		ropt := harness.RunOptions{
			Workers:      *workers,
			DisableCache: !*compileCache,
			Deadline:     *deadline,
			StepLimit:    *stepLimit,
		}
		if *faultSpec != "" {
			rules, err := faultinject.ParseSpec(*faultSpec)
			if err != nil {
				fatal(err)
			}
			ropt.Faults = faultinject.NewPlan(*faultSeed, rules...)
		}
		if *resume != "" {
			cp, err := harness.OpenCheckpoint(*resume)
			if err != nil {
				fatal(err)
			}
			defer cp.Close()
			ropt.Checkpoint = cp
		}
		tele := teleConfig{addr: *telemetryAddr, snapshot: *telemetrySnap}
		if err := runMetrics(opts, ropt, tele, *traceOut); err != nil {
			fatal(err)
		}
		if *exp == "" {
			return
		}
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"table2", "fig5", "fig11", "compilers", "table3", "table5",
			"fig10", "table7", "table8", "ctxswitch", "table9", "table10", "table12"}
	}
	st := newStudies(opts)
	for _, id := range ids {
		if err := run(strings.TrimSpace(id), opts, st); err != nil {
			fatal(err)
		}
	}
}

// studies runs each multi-figure study at most once per invocation: every
// requested table or figure of one study renders from the same result
// (table2, fig5 and fig11 all come from the opt-level study; table10 and
// table12 from the real-world study).
type studies struct {
	optLevels    func() (*core.OptLevelsResult, error)
	chromeSizes  func() (*core.InputSizesResult, error)
	firefoxSizes func() (*core.InputSizesResult, error)
	browsers     func() (*core.Table8Result, error)
	realWorld    func() (*core.Table10Result, error)
}

func newStudies(opts core.Options) *studies {
	return &studies{
		optLevels: sync.OnceValues(func() (*core.OptLevelsResult, error) {
			return core.RunOptLevels(opts)
		}),
		chromeSizes: sync.OnceValues(func() (*core.InputSizesResult, error) {
			return core.RunInputSizes(browser.Chrome(browser.Desktop), opts)
		}),
		firefoxSizes: sync.OnceValues(func() (*core.InputSizesResult, error) {
			return core.RunInputSizes(browser.Firefox(browser.Desktop), opts)
		}),
		browsers: sync.OnceValues(func() (*core.Table8Result, error) {
			return core.RunBrowsersPlatforms(opts)
		}),
		realWorld: sync.OnceValues(core.RunRealWorld),
	}
}

func run(id string, opts core.Options, st *studies) error {
	switch id {
	case "table2", "fig5", "fig6", "fig11":
		r, err := st.optLevels()
		if err != nil {
			return err
		}
		switch id {
		case "table2":
			fmt.Println(r.RenderTable2())
		case "fig5", "fig6":
			fmt.Println(r.RenderFig5())
		case "fig11":
			fmt.Println(r.RenderFig11())
		}
	case "compilers":
		r, err := core.RunCompilerCompare(opts)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	case "table3", "table4", "fig9":
		r, err := st.chromeSizes()
		if err != nil {
			return err
		}
		if id == "fig9" {
			fmt.Println(r.RenderFig9())
		} else {
			fmt.Println(r.RenderSpeedStats())
			fmt.Println(r.RenderMemStats())
		}
	case "table5", "table6":
		r, err := st.firefoxSizes()
		if err != nil {
			return err
		}
		fmt.Println(r.RenderSpeedStats())
		fmt.Println(r.RenderMemStats())
	case "fig10":
		r, err := core.RunJIT(opts)
		if err != nil {
			return err
		}
		fmt.Println(r.RenderFig10())
	case "table7":
		r, err := core.RunTable7(opts)
		if err != nil {
			return err
		}
		fmt.Println(r.RenderTable7())
	case "table8", "fig12", "fig13":
		r, err := st.browsers()
		if err != nil {
			return err
		}
		if id == "table8" {
			fmt.Println(r.RenderTable8())
		} else {
			fmt.Println(r.RenderFig1213())
		}
	case "ctxswitch":
		fmt.Println(core.RunCtxSwitch().Render())
	case "table9":
		r, err := core.RunManualJS()
		if err != nil {
			return err
		}
		fmt.Println(r.RenderTable9())
	case "table10", "table12":
		r, err := st.realWorld()
		if err != nil {
			return err
		}
		if id == "table10" {
			fmt.Println(r.RenderTable10())
		} else {
			fmt.Println(r.OpCounts.RenderTable12())
		}
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}

// teleConfig carries the live-telemetry flags into runMetrics.
type teleConfig struct {
	addr     string // HTTP listen address ("" = no server)
	snapshot string // snapshot destination ("" = none, "-" = stdout text)
}

func (t teleConfig) enabled() bool { return t.addr != "" || t.snapshot != "" }

// runMetrics executes the benchmark × language cell grid on desktop Chrome
// under the instrumented harness (with whatever budgets, checkpoint, and
// fault plan the flags selected) and prints the run's wall-time metrics. Sizes default to
// M alone (the study's reference class) to keep the grid manageable;
// -sizes widens it. With -telemetry the sweep serves live endpoints while
// it runs; trace and snapshot outputs are flushed even on SIGINT, so an
// interrupted sweep keeps its partial observability data.
func runMetrics(opts core.Options, ropt harness.RunOptions, tele teleConfig, traceOut string) error {
	benches := opts.Benchmarks
	if benches == nil {
		benches = benchsuite.All()
	}
	sizes := opts.Sizes
	if sizes == nil {
		sizes = []benchsuite.Size{benchsuite.M}
	}
	// One shared profile for the whole grid, so telemetry instruments and
	// tracers attach in one place (measurements copy the config per run).
	profile := browser.Chrome(browser.Desktop)
	var cells []harness.Cell
	for _, b := range benches {
		for _, sz := range sizes {
			for _, lang := range []string{"wasm", "js"} {
				cells = append(cells, harness.Cell{
					Bench: b, Size: sz, Level: ir.O2,
					Lang: lang, Profile: profile,
				})
			}
		}
	}
	var coll *obsv.Collector
	if traceOut != "" {
		coll = &obsv.Collector{}
		ropt.Tracer = coll
	}

	var hub *telemetry.Hub
	var srv *telemetry.Server
	if tele.enabled() {
		hub = telemetry.NewHub(0)
		ropt.Telemetry = hub
		profile.SetInstruments(hub.Registry())
		profile.SetProfiling(true)
		// VM events feed the bounded flight ring (newest window) while the
		// -trace-out collector keeps receiving harness events unchanged.
		profile.SetTracer(hub.Tracer())
		if tele.addr != "" {
			var err error
			srv, err = telemetry.Start(hub, tele.addr)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Printf("telemetry: serving http://%s (metrics, debug/trace, debug/profile, debug/cells, healthz)\n", srv.Addr())
		}
	}

	// flush writes whatever observability outputs were requested. It is
	// safe mid-run (collector and registry snapshots are concurrent), and
	// runs at most once — from the SIGINT handler or the normal exit path.
	var flushOnce sync.Once
	flush := func() {
		flushOnce.Do(func() {
			if traceOut != "" {
				if err := writeTrace(traceOut, coll); err != nil {
					fmt.Fprintln(os.Stderr, "benchtab: trace flush:", err)
				}
			}
			if tele.snapshot != "" {
				if err := telemetry.WriteSnapshot(os.Stdout, tele.snapshot, hub.Registry().Snapshot()); err != nil {
					fmt.Fprintln(os.Stderr, "benchtab: telemetry snapshot:", err)
				}
			}
		})
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "benchtab: %v: flushing partial observability outputs\n", s)
		flush()
		// Let in-flight scrapes finish before the process exits; the
		// 2-second budget keeps Ctrl-C snappy even with a stuck client.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = srv.Shutdown(shutdownCtx)
		cancel()
		os.Exit(130)
	}()

	results, metrics := harness.RunCellsWith(cells, ropt)
	fmt.Println(metrics.Render())
	// Failure summary: any failed cell makes the whole run exit nonzero,
	// with one line per casualty so partial results are still auditable.
	errs := harness.AllErrors(results)
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "benchtab: cell failed:", err)
	}
	flush()
	if len(errs) > 0 {
		return fmt.Errorf("%d of %d cells failed", len(errs), len(cells))
	}
	return nil
}

// writeTrace exports the collector's events as a Chrome trace file.
func writeTrace(path string, coll *obsv.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obsv.WriteChromeTrace(f, coll.Events(), nil); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace: %d events -> %s\n", coll.Len(), path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtab:", err)
	os.Exit(1)
}
