package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/compiler"
	"wasmbench/internal/faultinject"
	"wasmbench/internal/ir"
	"wasmbench/internal/obsv"
	"wasmbench/internal/telemetry"
	"wasmbench/internal/wasmvm"
)

// Cell is one measurement cell: a benchmark compiled with a configuration
// and measured on a profile, or run on the native x86 backend. A benchmark
// that carries hand-written JavaScript (Bench.JS) is not compiled: a "js"
// cell measures it as written, and Size, Level and Toolchain do not apply.
type Cell struct {
	Bench *benchsuite.Benchmark
	Size  benchsuite.Size
	Level ir.OptLevel
	// Lang is "wasm", "js", or "x86" (the native backend, which runs
	// without a Profile).
	Lang    string
	Profile *browser.Profile
	// Toolchain defaults to Cheerp.
	Toolchain compiler.Toolchain
	// Mode selects the engine tiers (browser.MeasureOptions.Mode). The
	// zero value, TierBoth, is every profile's default.
	Mode wasmvm.TierMode
}

// Label renders a compact cell identifier naming every field that changes
// the result, e.g. "atax/M/wasm/-O2@chrome-desktop". The toolchain is
// appended only when it is not Cheerp and the mode only when it is not
// TierBoth, so those labels (and checkpoints keyed by them) keep the
// short form; x86 cells end "@native". A hand-written program names no
// size, level or toolchain ("manual/3mm/js@chrome-desktop").
func (c Cell) Label() string {
	l := fmt.Sprintf("%s/%v/%s/%v", c.Bench.Name, c.Size, c.Lang, c.Level)
	if c.Bench.JS != "" {
		l = c.Bench.Name + "/" + c.Lang
	} else if c.Toolchain != compiler.Cheerp {
		l += "/" + c.Toolchain.String()
	}
	if c.Mode != wasmvm.TierBoth {
		l += "/" + c.Mode.String()
	}
	if c.Profile == nil {
		return l + "@native"
	}
	return l + "@" + c.Profile.Name()
}

// CellResult is the measured outcome.
type CellResult struct {
	Cell
	Meas *browser.Measurement
	Art  *compiler.Artifact
	Err  error
}

// cellOptions renders the cell's full compiler configuration. It is the
// only place kernel compile options are built. Each lang compiles its own
// target alone: the artifact is byte-identical to that target's part of an
// all-target compile, and served cells' fingerprints (which e2ebench's
// replay recomputes) stay what they were.
func cellOptions(c Cell) compiler.Options {
	target := compiler.TargetWasm
	switch c.Lang {
	case "js":
		target = compiler.TargetJS
	case "x86":
		target = compiler.TargetX86
	}
	return compiler.Options{
		Opt:        c.Level,
		Toolchain:  c.Toolchain,
		Defines:    c.Bench.Defines(c.Size),
		HeapLimit:  c.Bench.HeapLimitBytes(c.Size),
		ModuleName: c.Bench.ModuleName(),
		Targets:    []compiler.Target{target},
	}
}

// Fingerprint returns the cell's content-addressed compilation key:
// cells that differ only in browser profile or tier mode share a
// fingerprint, and therefore share one compiled artifact under an
// ArtifactCache. A hand-written program's key covers its JS text.
func (c Cell) Fingerprint() string {
	if c.Bench.JS != "" {
		return compiler.Fingerprint(c.Bench.JS, cellOptions(c))
	}
	return compiler.Fingerprint(c.Bench.Source, cellOptions(c))
}

// CompileCell builds the artifact for a cell. Every call compiles from
// scratch; the parallel harness deduplicates identical compilations with a
// content-addressed ArtifactCache (on by default in RunCellsWith, shared
// across the worker pool — see RunOptions.Cache / DisableCache), so each
// unique artifact compiles exactly once no matter how many profiles
// measure it.
func CompileCell(c Cell) (*compiler.Artifact, error) {
	return compiler.Compile(c.Bench.Source, cellOptions(c))
}

// RunCell compiles and measures one cell.
func RunCell(c Cell) CellResult {
	r, _ := runAttempt(c, nil, nil, RunOptions{}, nil)
	return r
}

// RunOptions configures a parallel harness run.
type RunOptions struct {
	// Workers is the pool size; <=0 selects the default
	// (min(NumCPU, 8)).
	Workers int
	// Tracer, when set, receives a KindCellStart / KindCellDone pair per
	// cell on the "harness" track. Unlike VM events, these carry
	// wall-clock timestamps (nanoseconds since the run began), so they
	// are not byte-reproducible across runs.
	Tracer obsv.Tracer
	// OnProgress, when set, is called after every finished cell with the
	// completion count, the total, and the cell's result. Calls are
	// serialized but arrive in completion order, not submission order.
	OnProgress func(done, total int, r CellResult)
	// Cache is the artifact compile cache shared by the worker pool. nil
	// creates a fresh cache for the run; pass an explicit cache to share
	// compiled artifacts across several runs. Ignored when DisableCache
	// is set.
	Cache *ArtifactCache
	// DisableCache forces every cell to cold-compile its artifact — the
	// opt-out for compile-time measurement studies. Measurements are
	// unaffected either way; only wall-clock compile time changes.
	DisableCache bool
	// SharedVMPools, when set, serves Wasm measurements from a
	// caller-owned pool set shared across many runs — the substrate a
	// long-running server keeps across requests: each artifact's pool
	// clones its instances from one post-init snapshot instead of re-running
	// module init per request. Like the artifact cache, this is
	// wall-clock-only — virtual metrics are byte-identical to cold runs by
	// the wasmvm snapshot contract. Saturated pools fall back to cold
	// instantiation, never blocking a worker. nil (the default) measures
	// every Wasm cell on a cold instance.
	SharedVMPools *VMPools

	// Context, when set, cancels the run cooperatively: cells not yet
	// started fail fast with ErrCellCanceled, in-flight attempts are
	// abandoned (their goroutines exit on their own, aborting injected
	// stalls). nil means context.Background() — no cancelation.
	// Deadlines carried by the context compose with the per-cell Deadline
	// budget.
	Context context.Context

	// Deadline is the wall-clock budget per cell. When exceeded,
	// the attempt is abandoned with ErrCellDeadline; its goroutine exits on
	// its own (the result channel is buffered) and any injected stall it is
	// sleeping in is cancelled. 0 means no deadline.
	Deadline time.Duration
	// StepLimit bounds each measurement's dynamic instruction count (a
	// virtual-cycle budget against runaway cells). 0 keeps profile limits.
	StepLimit uint64
	// Faults is the deterministic fault-injection plan threaded through
	// the toolchain and both engines. nil (the default) is fully inert.
	Faults *faultinject.Plan
	// Checkpoint, when set, restores previously completed cells instead of
	// re-running them and records each new success as it finishes.
	Checkpoint *Checkpoint
	// Telemetry, when set, publishes the run live: harness instruments
	// (cell latency histograms, queue-depth gauge, fault counter) on
	// the hub's registry, the run's cell record as the hub's "cells"
	// provider (a RunState), merged VM profiles, harness trace events teed
	// into the hub's flight window, and a flight dump frozen on every cell
	// failure. nil (the default) changes nothing: results and metrics are
	// byte-identical with telemetry on or off.
	Telemetry *telemetry.Hub
}

// DefaultWorkers returns the harness's default pool size.
func DefaultWorkers() int {
	w := runtime.NumCPU()
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunCells executes cells in parallel with the default pool size
// (virtual-time metrics are deterministic and independent across VM
// instances).
func RunCells(cells []Cell) []CellResult {
	res, _ := RunCellsWith(cells, RunOptions{})
	return res
}

// RunCellsN executes cells with an explicit worker count.
func RunCellsN(cells []Cell, workers int) []CellResult {
	res, _ := RunCellsWith(cells, RunOptions{Workers: workers})
	return res
}

// RunCellsWith executes cells under opt and reports per-cell wall-time
// metrics: compile/measure split, worker assignment, queue depth at
// pickup, compile-cache counters, and overall worker utilization.
//
// Within one call each distinct program is measured once: a cell whose
// measured program (JS text, Wasm binary and toolchain, or x86 program) is
// byte-identical to an earlier cell's, on the same profile, mode and step
// limit, gets its own copy of that measurement (CellMetric.MeasureReused).
// Every engine is deterministic, so results are identical either way. The
// reuse stays off under a fault plan, with SharedVMPools, and for profiles
// that carry a tracer or telemetry instruments.
func RunCellsWith(cells []Cell, opt RunOptions) ([]CellResult, *obsv.RunMetrics) {
	out := make([]CellResult, len(cells))
	workers := opt.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if len(cells) == 0 {
		return out, &obsv.RunMetrics{Workers: workers, Cells: []obsv.CellMetric{}}
	}
	cache := opt.Cache
	if cache == nil && !opt.DisableCache {
		cache = NewArtifactCache()
	}
	if opt.DisableCache {
		cache = nil
	}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	memo := newMeasureMemo(opt)

	rec := newRunRecord(cells, workers, cache, opt.SharedVMPools, opt.Faults, opt.Telemetry)
	start := rec.start
	// Tee harness trace events into the hub's flight window.
	if opt.Telemetry != nil {
		opt.Tracer = obsv.Multi(opt.Tracer, opt.Telemetry.Tracer())
	}

	// Restore checkpointed cells before enqueueing: resumed cells never
	// reach a worker, so a resumed run measures only what is missing.
	resumed := make([]bool, len(cells))
	if opt.Checkpoint != nil {
		for i, c := range cells {
			if r, ok := opt.Checkpoint.Lookup(c); ok {
				out[i] = r
				resumed[i] = true
				cm := obsv.CellMetric{Label: c.Label(), Status: "resumed", Resumed: true}
				recordResult(&cm, r)
				rec.resumed(i, cm)
			}
		}
	}

	// The index channel is pre-filled and buffered so the sender never
	// blocks: workers pull until the channel drains, whatever the pool
	// size.
	idx := make(chan int, len(cells))
	pending := 0
	for i := range cells {
		if !resumed[i] {
			idx <- i
			pending++
		}
	}
	close(idx)
	rec.enqueued(pending)

	var (
		mu   sync.Mutex
		done int
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range idx {
				// len(idx) no longer counts the index just pulled, so add
				// it back: QueueDepth is the depth at pickup, including
				// this cell (a single worker draining k cells records
				// k, k-1, …, 1).
				depth := len(idx) + 1
				cellStart := time.Since(start)
				c := cells[i]
				if opt.Tracer != nil {
					opt.Tracer.Emit(obsv.Event{Kind: obsv.KindCellStart,
						TS: float64(cellStart), Name: c.Label(),
						Track: "harness", A: float64(worker), B: float64(depth)})
				}
				rec.claim(i, worker, idx)
				r, info := runAttemptGuarded(ctx, c, opt, cache, memo)
				wall := time.Since(start) - cellStart
				out[i] = r
				cm := obsv.CellMetric{
					Label:         c.Label(),
					Worker:        worker,
					QueueDepth:    depth,
					Start:         cellStart,
					Compile:       info.compile,
					Measure:       info.measure,
					Wall:          wall,
					Failed:        r.Err != nil,
					CacheHit:      info.hit,
					MeasureReused: info.reused,
				}
				recordResult(&cm, r)
				rec.finish(i, r, cm)
				if r.Err == nil && opt.Checkpoint != nil {
					// Checkpoint write failures are non-fatal: the sweep's
					// results are still valid, only resumability suffers.
					_ = opt.Checkpoint.Record(r)
				}
				if opt.Tracer != nil {
					opt.Tracer.Emit(obsv.Event{Kind: obsv.KindCellDone,
						TS: float64(cellStart + wall), Dur: float64(wall),
						Name: c.Label(), Track: "harness", A: float64(worker)})
				}
				if opt.OnProgress != nil {
					// The lock is held across the callback so calls are
					// serialized, as the OnProgress contract documents.
					mu.Lock()
					done++
					opt.OnProgress(done, pending, r)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	metrics := rec.snapshot()
	return out, &metrics
}

// recordResult copies a measured cell's virtual metrics and pool use
// into its record.
func recordResult(cm *obsv.CellMetric, r CellResult) {
	if r.Meas == nil || r.Meas.Result == nil {
		return
	}
	res := r.Meas.Result
	cm.Cycles = res.Cycles
	cm.TierUps = res.TierUps
	cm.BasicCycles = res.WasmStats.BasicCycles
	cm.OptCycles = res.WasmStats.OptCycles
	cm.AOTCycles = res.WasmStats.AOTCycles
	cm.VMPooled = res.VMPooled
}

// FirstError returns the first cell error, if any.
func FirstError(results []CellResult) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// AllErrors returns every cell error, in cell order.
func AllErrors(results []CellResult) []error {
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, r.Err)
		}
	}
	return errs
}
