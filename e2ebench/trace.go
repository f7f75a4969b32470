package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"wasmbench/internal/obsv"
)

// Layer names. Spans are taken by the benchmark around calls into each
// layer's public functions; the compile sub-stages come from the
// KindCompilePass events compiler.Compile emits to a tracer the benchmark
// supplies, stamped with the wall clock as they arrive.
const (
	lCompile  = "compiler.compile"
	lFront    = "minic.front"
	lIRBuild  = "ir.build"
	lIRPasses = "ir.passes"
	lGenWasm  = "codegen.wasm"
	lGenJS    = "codegen.js"
	lGenX86   = "codegen.x86"
	lExec     = "wasmvm.exec"
	lCheckout = "wasmvm.checkout"
	lReset    = "wasmvm.reset"
	lJS       = "jsvm.run"
	lX86      = "x86vm.run"
	lRender   = "core.render"
)

// topLayers partition an operation's busy time; their sum over the busy
// time is the trace's coverage. The compile sub-stages nest inside
// lCompile and are reported as shares of the same busy time.
var topLayers = []string{lCompile, lExec, lCheckout, lReset, lJS, lX86, lRender}

var compileStages = []string{lFront, lIRBuild, lIRPasses, lGenWasm, lGenJS, lGenX86}

var allLayers = append(append([]string{}, topLayers...), compileStages...)

// spans accumulates one traced pass: time per layer, virtual work counts
// per engine, and the busy time of the operations that contain the spans.
// A nil *spans is the untraced pass: every method is a no-op, so the same
// replay code runs with and without tracing.
type spans struct {
	dur   map[string]time.Duration
	count map[string]float64
	busy  time.Duration
}

func newSpans() *spans {
	return &spans{dur: map[string]time.Duration{}, count: map[string]float64{}}
}

// start returns the time a span begins (zero when untraced).
func (s *spans) start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// end closes a span of layer begun at t0.
func (s *spans) end(layer string, t0 time.Time) {
	if s == nil {
		return
	}
	s.dur[layer] += time.Since(t0)
}

// op closes an operation (one cell or one request) begun at t0; its
// duration is busy time.
func (s *spans) op(t0 time.Time) {
	if s == nil {
		return
	}
	s.busy += time.Since(t0)
}

func (s *spans) add(counter string, v float64) {
	if s == nil {
		return
	}
	s.count[counter] += v
}

// merge folds o (a worker's private spans) into s.
func (s *spans) merge(o *spans) {
	if s == nil || o == nil {
		return
	}
	for k, v := range o.dur {
		s.dur[k] += v
	}
	for k, v := range o.count {
		s.count[k] += v
	}
	s.busy += o.busy
}

// tracer returns the compile-pass tracer for one compilation starting now,
// or nil when untraced.
func (s *spans) tracer() *passTracer {
	if s == nil {
		return nil
	}
	return &passTracer{s: s, last: time.Now()}
}

// passTracer turns compiler.Compile's KindCompilePass events into wall
// time per compile stage: each event closes the stage that ran since the
// previous one. One tracer serves one (single-goroutine) compilation.
type passTracer struct {
	s    *spans
	last time.Time
}

func (p *passTracer) Emit(e obsv.Event) {
	if e.Kind != obsv.KindCompilePass {
		return
	}
	now := time.Now()
	p.s.dur[stageLayer(e.Name)] += now.Sub(p.last)
	p.last = now
}

// stageLayer maps a compile-pass event name to its layer.
func stageLayer(name string) string {
	switch name {
	case "parse", "transform", "check":
		return lFront
	case "ir-build":
		return lIRBuild
	case "codegen-wasm":
		return lGenWasm
	case "codegen-js":
		return lGenJS
	case "codegen-x86":
		return lGenX86
	}
	return lIRPasses
}

// covered is the summed time of the top-level layers.
func (s *spans) covered() time.Duration {
	var d time.Duration
	for _, l := range topLayers {
		d += s.dur[l]
	}
	return d
}

// pct is part as a percentage of whole, or 0 when whole is not positive.
func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}

// share is layer's time as a percentage of the busy time.
func (s *spans) share(layer string) float64 {
	return pct(s.dur[layer].Seconds(), s.busy.Seconds())
}

// msteps is an engine's virtual steps per second of its layer time, in
// millions; 0 when the layer did not run.
func (s *spans) msteps(steps, layer string) float64 {
	d := s.dur[layer].Seconds()
	if d <= 0 {
		return 0
	}
	return s.count[steps] / d / 1e6
}

// report writes the human-readable traced-run split: each layer's time and
// share, coverage, and the tracing overhead against the untraced pass.
func (s *spans) report(w io.Writer, workload string, untraced, traced time.Duration) {
	fmt.Fprintf(w, "traced split for %s: busy %.3fs in traced pass (%.3fs wall; untraced pass %.3fs wall, overhead %+.1f%%)\n",
		workload, s.busy.Seconds(), traced.Seconds(), untraced.Seconds(), overheadPct(untraced, traced))
	type row struct {
		name string
		d    time.Duration
	}
	var rows []row
	for _, l := range allLayers {
		if s.dur[l] > 0 {
			rows = append(rows, row{l, s.dur[l]})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
	for _, r := range rows {
		nested := ""
		if slices.Contains(compileStages, r.name) {
			nested = "  (inside compiler.compile)"
		}
		fmt.Fprintf(w, "  %-18s %9.4fs %6.2f%%%s\n", r.name, r.d.Seconds(), s.share(r.name), nested)
	}
	fmt.Fprintf(w, "  layers cover %.2f%% of busy time\n", pct(s.covered().Seconds(), s.busy.Seconds()))
}

func overheadPct(untraced, traced time.Duration) float64 {
	return pct((traced - untraced).Seconds(), untraced.Seconds())
}

// layerMetrics renders the spans as the per-layer metrics every traced run
// reports. Layer times are shares of the traced pass's busy time, so a
// layer a workload never enters reads 0%; trace.busy_s turns a share back
// into seconds.
func (s *spans) layerMetrics(m metrics, untraced, traced time.Duration) {
	m.set("trace.busy_s", s.busy.Seconds(), "s")
	m.set("trace.coverage_pct", pct(s.covered().Seconds(), s.busy.Seconds()), "%")
	m.set("trace.overhead_pct", overheadPct(untraced, traced), "%")
	for _, l := range allLayers {
		m.set(l+"_share", s.share(l), "%")
	}
	m.set("wasmvm.steps", s.count["wasmvm.steps"], "count")
	m.set("wasmvm.msteps_per_s", s.msteps("wasmvm.steps", lExec), "Msteps/s")
	m.set("jsvm.steps", s.count["jsvm.steps"], "count")
	m.set("jsvm.msteps_per_s", s.msteps("jsvm.steps", lJS), "Msteps/s")
	m.set("jsvm.gc_count", s.count["jsvm.gc_count"], "count")
	m.set("x86vm.steps", s.count["x86vm.steps"], "count")
	m.set("x86vm.msteps_per_s", s.msteps("x86vm.steps", lX86), "Msteps/s")
}
