package obsv

import (
	"fmt"
	"strings"
	"time"
)

// CellMetric records the harness-level schedule of one measurement cell.
type CellMetric struct {
	Label  string
	Worker int
	// QueueDepth is how many cells were queued at the moment this one was
	// picked up, including the cell itself: a single worker draining k
	// cells records k, k-1, …, 1.
	QueueDepth int
	// Start is the offset from the run start.
	Start time.Duration
	// Compile and Measure split the cell's wall time into toolchain work
	// and VM execution; Wall is the full span (compile + measure + glue).
	Compile time.Duration
	Measure time.Duration
	Wall    time.Duration
	Failed  bool
	// CacheHit reports that the cell's artifact came from the harness
	// compile cache (or from waiting on another worker's in-flight
	// compile) instead of being compiled by this cell.
	CacheHit bool
	// TierUps counts VM tier promotions during the measurement (Wasm
	// functions or JS code objects), and BasicCycles/OptCycles split the
	// cell's virtual instruction cycles by the tier that charged them
	// (Wasm cells only; JS cells report zero). AOTCycles is the portion of
	// OptCycles charged while the AOT superblock dispatcher ran — a
	// sub-split, always ≤ OptCycles, so the three render as
	// basic / (opt − aot) / aot.
	TierUps     int
	BasicCycles float64
	OptCycles   float64
	AOTCycles   float64
	// Attempts is how many times the harness ran the cell (1 = first try
	// succeeded; retries and degradation rungs each add one).
	Attempts int
	// Degraded names the degradation-ladder rung that finally produced the
	// cell's result ("noaot", "nojit", "O0"); "" when the
	// cell ran at full configuration.
	Degraded string
	// Quarantined reports the cell was skipped because its benchmark
	// exceeded the consecutive-failure quarantine threshold.
	Quarantined bool
	// Resumed reports the cell's result was restored from a checkpoint
	// file instead of being executed (Attempts is 0 for such cells).
	Resumed bool
	// VMPooled reports the cell's Wasm run was served through the harness
	// instance pool (snapshot clone or recycled instance); VMPoolHit
	// narrows that to a recycled instance. Wall-clock bookkeeping only —
	// virtual metrics are identical to a cold run by construction.
	VMPooled  bool
	VMPoolHit bool
}

// RunMetrics aggregates one RunCells invocation's schedule.
type RunMetrics struct {
	Workers int
	// Span is the wall time from run start to the last cell completion.
	Span  time.Duration
	Cells []CellMetric
	// Compile-cache counters for the run (deltas when the cache is shared
	// across runs): CacheHits resolved instantly, CacheMisses compiled,
	// CacheDedupWaits blocked on another worker's in-flight compile.
	// CacheEnabled distinguishes a disabled cache from an idle one.
	CacheEnabled    bool
	CacheHits       int
	CacheMisses     int
	CacheDedupWaits int
	// Robustness counters (all zero on a fault-free run, keeping Render's
	// output byte-identical to a harness without the resilience layer):
	// FaultsInjected totals fault-plan firings observed by the run,
	// Retries counts re-executions of failed cells, Degraded counts cells
	// whose result came from a degradation rung, and Quarantined counts
	// cells skipped after their benchmark tripped the quarantine threshold.
	FaultsInjected int
	Retries        int
	Degraded       int
	Quarantined    int
	// Instance-pool counters (zero and hidden when RunOptions.VMPool was
	// off, keeping Render's output byte-identical): checkout hits served by
	// recycled instances, misses that cloned from the snapshot, recycles
	// returned to the pool, and cold fallbacks past the pool bound.
	VMPoolEnabled       bool
	VMPoolHits          int
	VMPoolMisses        int
	VMPoolRecycles      int
	VMPoolColdFallbacks int
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
		if c.Quarantined {
			status = "  QUARANTINED"
		} else if c.Failed {
			status = "  FAILED"
		}
		if c.Attempts > 1 {
			status += fmt.Sprintf("  retries:%d", c.Attempts-1)
		}
		if c.Degraded != "" {
			status += "  degraded:" + c.Degraded
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
	if m.VMPoolEnabled {
		fmt.Fprintf(&b, "vm pool: %d hits  %d misses  %d recycles  %d cold-fallbacks\n",
			m.VMPoolHits, m.VMPoolMisses, m.VMPoolRecycles, m.VMPoolColdFallbacks)
	}
	if m.FaultsInjected > 0 || m.Retries > 0 || m.Degraded > 0 || m.Quarantined > 0 {
		fmt.Fprintf(&b, "robustness: %d faults injected  %d retries  %d degraded  %d quarantined\n",
			m.FaultsInjected, m.Retries, m.Degraded, m.Quarantined)
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}
