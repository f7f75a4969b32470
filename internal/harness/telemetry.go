package harness

// This file holds one RunCellsWith invocation's cell record and wires it
// into a telemetry.Hub. Workers write the record's cells under one mutex;
// the RunMetrics a run returns and the hub's live "cells" provider
// (/debug/cells) are both copies tallied by snapshot. With a hub attached
// the run also feeds the harness instruments (cell latency histograms,
// queue depth, fault counter), freezes a flight dump on every failed
// cell, and merges VM profiles. Without one every hub hook is skipped.

import (
	"sync"
	"time"

	"wasmbench/internal/faultinject"
	"wasmbench/internal/obsv"
	"wasmbench/internal/telemetry"
	"wasmbench/internal/wasmvm"
)

// RunState is the "cells" provider's payload: a tallied copy of the run's
// cell record plus the cumulative counters of the artifact cache and the
// instance pools it used, which may be shared with other runs.
type RunState struct {
	obsv.RunMetrics
	Cache   *CacheStats       `json:"cache,omitempty"`
	VMPool  *wasmvm.PoolStats `json:"vm_pool,omitempty"`
	VMPools int               `json:"vm_pools,omitempty"`
}

// runRecord is one run's cell record and the baselines its counters are
// measured from.
type runRecord struct {
	start     time.Time
	cache     *ArtifactCache
	cacheBase CacheStats
	pools     *VMPools
	poolBase  wasmvm.PoolStats
	plan      *faultinject.Plan
	faultBase int

	hub  *telemetry.Hub
	inst *telemetry.HarnessInstruments

	mu         sync.Mutex
	m          obsv.RunMetrics
	faultsSeen int // plan firings already added to harness_faults_total
}

// newRunRecord starts the record with every cell pending. A non-nil hub
// gets the harness instruments, the "cells" provider, and the cache's
// instruments.
func newRunRecord(cells []Cell, workers int, cache *ArtifactCache, pools *VMPools, plan *faultinject.Plan, hub *telemetry.Hub) *runRecord {
	r := &runRecord{
		start: time.Now(), cache: cache, pools: pools, plan: plan, hub: hub,
		m: obsv.RunMetrics{Workers: workers, Cells: make([]obsv.CellMetric, len(cells))},
	}
	for i, c := range cells {
		r.m.Cells[i] = obsv.CellMetric{Label: c.Label(), Status: "pending"}
	}
	// Baselines, so a caller-shared cache or pool set and a reused fault
	// plan report this run's deltas only.
	if cache != nil {
		r.cacheBase = cache.Stats()
	}
	r.poolBase = pools.Stats()
	if plan != nil {
		r.faultBase = plan.TotalFired()
		r.faultsSeen = r.faultBase
	}
	if hub != nil {
		r.inst = telemetry.NewHarnessInstruments(hub.Registry())
		if cache != nil {
			cache.SetInstruments(telemetry.NewCacheInstruments(hub.Registry()),
				telemetry.NewCompilerInstruments(hub.Registry()))
		}
		hub.Publish("cells", r.state)
	}
	return r
}

// snapshot returns a copy of the record with every aggregate derived from
// its cells and the run's cache, pools, and fault plan.
func (r *runRecord) snapshot() obsv.RunMetrics {
	r.mu.Lock()
	m := r.m
	m.Cells = append([]obsv.CellMetric(nil), r.m.Cells...)
	r.mu.Unlock()
	m.Span = time.Since(r.start)
	m.Total = len(m.Cells)
	for _, c := range m.Cells {
		switch c.Status {
		case "pending":
			m.QueueDepth++
		case "running":
			m.Running++
		default:
			m.Done++
		}
		if c.Failed {
			m.Failed++
		}
		if c.Resumed {
			m.Resumed++
		}
		if c.MeasureReused {
			m.MeasureReuses++
		}
	}
	if r.plan != nil {
		m.FaultsInjected = r.plan.TotalFired() - r.faultBase
	}
	if r.cache != nil {
		s := r.cache.Stats()
		m.CacheEnabled = true
		m.CacheHits = s.Hits - r.cacheBase.Hits
		m.CacheMisses = s.Misses - r.cacheBase.Misses
		m.CacheDedupWaits = s.DedupWaits - r.cacheBase.DedupWaits
	}
	if r.pools != nil {
		s := r.pools.Stats()
		m.VMPoolEnabled = true
		m.VMPoolHits = s.Hits - r.poolBase.Hits
		m.VMPoolMisses = s.Misses - r.poolBase.Misses
		m.VMPoolRecycles = s.Recycles - r.poolBase.Recycles
		m.VMPoolColdFallbacks = s.ColdFallbacks - r.poolBase.ColdFallbacks
	}
	return m
}

// state is the "cells" provider.
func (r *runRecord) state() any {
	s := RunState{RunMetrics: r.snapshot()}
	if r.cache != nil {
		cs := r.cache.Stats()
		s.Cache = &cs
	}
	if r.pools != nil {
		ps := r.pools.Stats()
		s.VMPool = &ps
		s.VMPools = r.pools.PoolCount()
	}
	return s
}

// resumed records a checkpoint-restored cell.
func (r *runRecord) resumed(i int, cm obsv.CellMetric) {
	r.mu.Lock()
	r.m.Cells[i] = cm
	r.mu.Unlock()
	if r.inst != nil {
		r.inst.Checkpoints.Inc()
	}
}

// enqueued sets the initial queue-depth gauge.
func (r *runRecord) enqueued(pending int) {
	if r.inst != nil {
		r.inst.QueueDepth.Set(float64(pending))
	}
}

// claim marks cell i running on worker. The queue-depth gauge reads the
// index channel under the record's lock, so the last claim always leaves
// it at the true depth.
func (r *runRecord) claim(i, worker int, queue chan int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m.Cells[i].Status = "running"
	r.m.Cells[i].Worker = worker
	if r.inst != nil {
		r.inst.QueueDepth.Set(float64(len(queue)))
	}
}

// finish stores cell i's final record and, with a hub, observes the
// latency histograms and fault counter, merges the cell's profiles,
// and freezes a flight dump on failure.
func (r *runRecord) finish(i int, res CellResult, cm obsv.CellMetric) {
	cm.Status = "ok"
	if cm.Failed {
		cm.Status = "failed"
	}
	r.mu.Lock()
	r.m.Cells[i] = cm
	var newFaults int
	if r.plan != nil {
		fired := r.plan.TotalFired()
		newFaults, r.faultsSeen = fired-r.faultsSeen, fired
	}
	r.mu.Unlock()
	if r.inst == nil {
		return
	}
	r.inst.CellsDone.Inc()
	r.inst.CellWall.Observe(cm.Wall.Seconds())
	r.inst.CellCompile.Observe(cm.Compile.Seconds())
	r.inst.CellMeasure.Observe(cm.Measure.Seconds())
	if newFaults > 0 {
		r.inst.Faults.Add(float64(newFaults))
	}
	if res.Meas != nil && res.Meas.Result != nil {
		r.inst.CellCycles.Observe(res.Meas.Result.Cycles)
		r.hub.MergeProfiles(res.Meas.Result.Profiles)
	}
	if res.Err != nil {
		// Freeze the trace window that led up to the failure before newer
		// events overwrite it; /debug/trace?which=failure serves it.
		r.inst.FlightFailures.Inc()
		r.hub.DumpFlight(cm.Label + ": " + res.Err.Error())
	}
}
