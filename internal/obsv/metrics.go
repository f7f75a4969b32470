package obsv

import (
	"fmt"
	"strings"
	"time"
)

// CellMetric records the harness-level schedule of one measurement cell.
// It is the one per-cell record: RunCellsWith returns it and the live
// /debug/cells endpoint serves it as JSON while the run is in flight.
type CellMetric struct {
	Label string `json:"label"`
	// Status is the cell's place in the run: pending, running, ok, failed,
	// or resumed.
	Status string `json:"status"`
	Worker int    `json:"worker"`
	// QueueDepth is how many cells were queued at the moment this one was
	// picked up, including the cell itself: a single worker draining k
	// cells records k, k-1, …, 1.
	QueueDepth int `json:"queue_depth"`
	// Start is the offset from the run start.
	Start time.Duration `json:"start_ns"`
	// Compile and Measure split the cell's wall time into toolchain work
	// and VM execution; Wall is the full span (compile + measure + glue).
	Compile time.Duration `json:"compile_ns"`
	Measure time.Duration `json:"measure_ns"`
	Wall    time.Duration `json:"wall_ns"`
	Failed  bool          `json:"failed,omitempty"`
	// CacheHit reports that the cell's artifact came from the harness
	// compile cache (or from waiting on another worker's in-flight
	// compile) instead of being compiled by this cell.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Cycles is the measurement's virtual-cycle total. TierUps counts VM
	// tier promotions during the measurement (Wasm functions or JS code
	// objects), and BasicCycles/OptCycles split the cell's virtual
	// instruction cycles by the tier that charged them (Wasm cells only;
	// JS cells report zero). AOTCycles is the portion of OptCycles charged
	// while the AOT superblock dispatcher ran — a sub-split, always ≤
	// OptCycles, so the three render as basic / (opt − aot) / aot.
	Cycles      float64 `json:"cycles,omitempty"`
	TierUps     int     `json:"tier_ups,omitempty"`
	BasicCycles float64 `json:"basic_cycles,omitempty"`
	OptCycles   float64 `json:"opt_cycles,omitempty"`
	AOTCycles   float64 `json:"aot_cycles,omitempty"`
	// Resumed reports the cell's result was restored from a checkpoint
	// file instead of being executed.
	Resumed bool `json:"resumed,omitempty"`
	// VMPooled reports the cell's Wasm run was served through the harness
	// instance pool (the snapshot capture or a clone of it). Wall-clock
	// bookkeeping only — virtual metrics are identical to a cold run by
	// construction.
	VMPooled bool `json:"vm_pooled,omitempty"`
	// MeasureReused reports the cell's measurement was copied from an
	// earlier cell of the run whose program was byte-identical (same
	// profile, mode and step limit) instead of being run again.
	MeasureReused bool `json:"measure_reused,omitempty"`
}

// RunMetrics aggregates one RunCells invocation's schedule. Every field
// but Workers and Cells is derived from the cells and the run's shared
// cache, pools, and fault plan, by the same function for the end-of-run
// result and for the live /debug/cells view.
type RunMetrics struct {
	Workers int `json:"workers"`
	// Span is the wall time from run start to the last cell completion;
	// the live /debug/cells view reports the time since run start.
	Span  time.Duration `json:"span_ns"`
	Cells []CellMetric  `json:"cells"`
	// Cell counts by status: Total cells, Done finished (ok, failed, or
	// resumed), Running claimed by a worker, QueueDepth not yet claimed,
	// Failed finished with an error, Resumed restored from a checkpoint.
	Total      int `json:"total"`
	Done       int `json:"done"`
	Running    int `json:"running"`
	QueueDepth int `json:"queue_depth"`
	Failed     int `json:"failed"`
	Resumed    int `json:"resumed"`
	// MeasureReuses counts cells that reused another cell's measurement
	// (zero and hidden in Render when nothing was reused).
	MeasureReuses int `json:"measure_reuses"`
	// Compile-cache counters for the run (deltas when the cache is shared
	// across runs): CacheHits resolved instantly, CacheMisses compiled,
	// CacheDedupWaits blocked on another worker's in-flight compile.
	// CacheEnabled distinguishes a disabled cache from an idle one.
	CacheEnabled    bool `json:"cache_enabled"`
	CacheHits       int  `json:"cache_hits"`
	CacheMisses     int  `json:"cache_misses"`
	CacheDedupWaits int  `json:"cache_dedup_waits"`
	// FaultsInjected totals fault-plan firings observed by the run (zero
	// and hidden on a fault-free run, keeping Render's output byte-stable).
	FaultsInjected int `json:"faults_injected"`
	// Instance-pool counters (zero and hidden when the run had no
	// RunOptions.SharedVMPools, keeping Render's output byte-identical):
	// checkout hits that cloned the snapshot, misses that captured it,
	// recycles (instances handed back to the pool), and cold fallbacks past
	// the pool bound.
	VMPoolEnabled       bool `json:"vm_pool_enabled"`
	VMPoolHits          int  `json:"vm_pool_hits"`
	VMPoolMisses        int  `json:"vm_pool_misses"`
	VMPoolRecycles      int  `json:"vm_pool_recycles"`
	VMPoolColdFallbacks int  `json:"vm_pool_cold_fallbacks"`
}

// Utilization returns busy-time / (workers × span): 1.0 means every
// worker was busy for the whole run.
func (m *RunMetrics) Utilization() float64 {
	if m.Workers == 0 || m.Span <= 0 {
		return 0
	}
	var busy time.Duration
	for _, c := range m.Cells {
		busy += c.Wall
	}
	return float64(busy) / (float64(m.Workers) * float64(m.Span))
}

// CompileShare returns the fraction of total cell wall time spent in the
// toolchain rather than measuring.
func (m *RunMetrics) CompileShare() float64 {
	var compile, wall time.Duration
	for _, c := range m.Cells {
		compile += c.Compile
		wall += c.Wall
	}
	if wall == 0 {
		return 0
	}
	return float64(compile) / float64(wall)
}

// Render returns the per-cell table plus the run summary lines.
func (m *RunMetrics) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %3s %5s %10s %10s %10s %10s %5s %7s %5s %5s\n",
		"cell", "wkr", "queue", "start", "compile", "measure", "wall", "cache", "tierups", "opt%", "aot%")
	for _, c := range m.Cells {
		status := ""
		if c.Failed {
			status = "  FAILED"
		}
		if c.Resumed {
			status += "  resumed"
		}
		// The cache column folds in the VM pool: "hit" is an artifact-cache
		// hit, "vm" a pooled VM checkout, "hit+vm" both.
		cacheCol := "-"
		switch {
		case c.CacheHit && c.VMPooled:
			cacheCol = "hit+vm"
		case c.CacheHit:
			cacheCol = "hit"
		case c.VMPooled:
			cacheCol = "vm"
		}
		// Per-tier share of the cell's instruction cycles: opt% is the
		// optimizing tier's share, aot% the part of it that ran under the
		// AOT superblock dispatcher (aot ⊆ opt, matching the wasmrun
		// basic=/opt=/aot= line and wasm_tier_cycles_total labels).
		optCol, aotCol := "-", "-"
		if total := c.BasicCycles + c.OptCycles; total > 0 {
			optCol = fmt.Sprintf("%.0f", 100*c.OptCycles/total)
			aotCol = fmt.Sprintf("%.0f", 100*c.AOTCycles/total)
		}
		fmt.Fprintf(&b, "%-32s %3d %5d %10s %10s %10s %10s %5s %7d %5s %5s%s\n",
			c.Label, c.Worker, c.QueueDepth,
			fmtDur(c.Start), fmtDur(c.Compile), fmtDur(c.Measure), fmtDur(c.Wall),
			cacheCol, c.TierUps, optCol, aotCol, status)
	}
	fmt.Fprintf(&b, "cells: %d  workers: %d  span: %s  utilization: %.1f%%  compile-share: %.1f%%\n",
		len(m.Cells), m.Workers, fmtDur(m.Span),
		100*m.Utilization(), 100*m.CompileShare())
	if m.CacheEnabled {
		fmt.Fprintf(&b, "compile cache: %d hits  %d misses  %d dedup-waits\n",
			m.CacheHits, m.CacheMisses, m.CacheDedupWaits)
	}
	if m.MeasureReuses > 0 {
		fmt.Fprintf(&b, "measure reuse: %d cells reused a byte-identical program's measurement\n",
			m.MeasureReuses)
	}
	if m.VMPoolEnabled {
		fmt.Fprintf(&b, "vm pool: %d clones  %d captures  %d returned  %d cold-fallbacks\n",
			m.VMPoolHits, m.VMPoolMisses, m.VMPoolRecycles, m.VMPoolColdFallbacks)
	}
	if m.FaultsInjected > 0 {
		fmt.Fprintf(&b, "robustness: %d faults injected\n", m.FaultsInjected)
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}
