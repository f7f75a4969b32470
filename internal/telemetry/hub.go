package telemetry

import (
	"sort"
	"sync"

	"wasmbench/internal/obsv"
)

// Hub bundles the live telemetry surfaces of one process: the metrics
// Registry, the flight window (an obsv.Collector ring keeping the newest
// events), a merged live profile (folded stacks across every measured VM
// so far), named JSON state providers (the harness publishes its run
// record as "cells"), and the most recent failure dump. A nil *Hub is
// fully inert, mirroring the nil-Tracer discipline.
type Hub struct {
	Reg    *Registry
	Flight *obsv.Collector

	mu        sync.Mutex
	profiles  map[string]*obsv.FuncProfile // keyed by track + "\x00" + name
	providers map[string]func() any
	lastDump  *FlightDump
	dumps     uint64
}

// FlightDump is the flight window frozen at a failure.
type FlightDump struct {
	// Reason labels what triggered the dump (cell label + error).
	Reason string
	// Events is the window as Collector.Events returned it: a truncation
	// marker, its note prefixed with the reason, leads it when the ring
	// had already overwritten older events.
	Events []obsv.Event
}

// DefaultFlightCapacity is the flight window in events (≈ a few seconds
// of VM events on a busy sweep).
const DefaultFlightCapacity = 65536

// NewHub returns a hub with a fresh registry and a flight window of the
// given capacity (<= 0 selects DefaultFlightCapacity).
func NewHub(flightCapacity int) *Hub {
	if flightCapacity <= 0 {
		flightCapacity = DefaultFlightCapacity
	}
	return &Hub{
		Reg:       NewRegistry(),
		Flight:    &obsv.Collector{Cap: flightCapacity},
		profiles:  make(map[string]*obsv.FuncProfile),
		providers: make(map[string]func() any),
	}
}

// Registry returns the hub's registry (nil on a nil hub), so callers can
// write h.Registry().Counter(...) without a nil check of their own.
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.Reg
}

// Tracer returns the hub's flight window as an obsv.Tracer, or nil on a
// nil hub — preserving the VMs' disabled fast path.
func (h *Hub) Tracer() obsv.Tracer {
	if h == nil || h.Flight == nil {
		return nil
	}
	return h.Flight
}

// MergeProfiles folds per-function profiles from one finished measurement
// into the hub's cumulative live profile: calls and self/total cycles sum
// per (track, function). The merged view backs /debug/profile.
func (h *Hub) MergeProfiles(profiles []obsv.FuncProfile) {
	if h == nil || len(profiles) == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range profiles {
		key := p.Track + "\x00" + p.Name
		if have, ok := h.profiles[key]; ok {
			have.Calls += p.Calls
			have.SelfCycles += p.SelfCycles
			have.TotalCycles += p.TotalCycles
		} else {
			cp := p
			cp.Classes = nil // class mixes don't merge meaningfully across cells
			h.profiles[key] = &cp
		}
	}
}

// Profiles returns the merged live profile, sorted by self cycles
// descending (ties by track+name for determinism).
func (h *Hub) Profiles() []obsv.FuncProfile {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	out := make([]obsv.FuncProfile, 0, len(h.profiles))
	for _, p := range h.profiles {
		out = append(out, *p)
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfCycles != out[j].SelfCycles {
			return out[i].SelfCycles > out[j].SelfCycles
		}
		if out[i].Track != out[j].Track {
			return out[i].Track < out[j].Track
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Publish registers (or replaces) a named JSON state provider. The server
// calls the provider on each matching /debug/<name> request; the returned
// value is marshaled with encoding/json, so providers must return a
// snapshot safe to read after the call (no live shared state).
func (h *Hub) Publish(name string, fn func() any) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.providers[name] = fn
	h.mu.Unlock()
}

// Provider returns the named state provider, or nil.
func (h *Hub) Provider(name string) func() any {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.providers[name]
}

// DumpFlight freezes the current flight window as the hub's failure
// dump. The harness and the serve workers call this when a cell fails, so
// the trace context that led up to the failure survives even after the
// ring moves on; /debug/trace?which=failure serves it.
func (h *Hub) DumpFlight(reason string) {
	if h == nil || h.Flight == nil {
		return
	}
	events := h.Flight.Events()
	if len(events) > 0 && events[0].Kind == obsv.KindTruncation {
		events[0].Name = "failure dump (" + reason + "): " + events[0].Name
	}
	h.mu.Lock()
	h.lastDump = &FlightDump{Reason: reason, Events: events}
	h.dumps++
	h.mu.Unlock()
}

// LastDump returns the most recent failure dump (nil if none fired) and
// the total number of dumps taken.
func (h *Hub) LastDump() (*FlightDump, uint64) {
	if h == nil {
		return nil, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastDump, h.dumps
}

// --- Per-layer instrument bundles -----------------------------------------
//
// Each bundle registers the layer's metric names once and hands the VMs /
// toolchain / harness a struct of instruments to poke. A nil bundle (the
// zero-telemetry default) costs one branch per hook site; all instruments
// inside a non-nil bundle are non-nil.

// VMInstruments are the Wasm VM's live metrics. Event-shaped updates
// (tier-ups, grows) happen at their rare hook sites; bulk counters (steps,
// per-tier cycles) are flushed once per exported Call so the dispatch loop
// itself carries no telemetry writes.
type VMInstruments struct {
	Runs          *Counter
	Steps         *Counter
	BasicCycles   *Counter
	OptCycles     *Counter
	TierUps       *Counter
	MemGrowOps    *Counter
	MemGrowPages  *Counter
	AOTCycles     *Counter
	AOTTranslated *Counter
	Superblocks   *Counter
	PeakMemBytes  *Gauge
}

// NewVMInstruments registers the wasm_* metric family on r (nil r → nil).
func NewVMInstruments(r *Registry) *VMInstruments {
	if r == nil {
		return nil
	}
	return &VMInstruments{
		Runs:          r.Counter("wasm_runs_total", "top-level exported-function calls completed"),
		Steps:         r.Counter("wasm_steps_total", "dynamic Wasm instructions executed"),
		BasicCycles:   r.Counter(Label("wasm_tier_cycles_total", "tier", "basic"), "virtual cycles charged by tier cost table"),
		OptCycles:     r.Counter(Label("wasm_tier_cycles_total", "tier", "opt"), "virtual cycles charged by tier cost table"),
		TierUps:       r.Counter("wasm_tierups_total", "functions promoted to the optimizing tier (§4.4.2)"),
		MemGrowOps:    r.Counter("wasm_mem_grow_ops_total", "memory.grow instructions executed (§4.2.2)"),
		MemGrowPages:  r.Counter("wasm_mem_grow_pages_total", "64 KiB pages granted by successful memory.grow"),
		AOTCycles:     r.Counter(Label("wasm_tier_cycles_total", "tier", "aot"), "virtual cycles charged while the AOT superblock dispatcher ran (sub-split of tier=\"opt\")"),
		AOTTranslated: r.Counter("wasm_aot_translations_total", "hot function bodies AOT-compiled into superblock closures"),
		Superblocks:   r.Counter("wasm_aot_superblocks_total", "superblocks built across all AOT compilations"),
		PeakMemBytes:  r.Gauge("wasm_linear_memory_peak_bytes", "largest linear-memory high-water mark seen (§4.3: Wasm memory never shrinks)"),
	}
}

// PoolInstruments are the Wasm instance pool's live metrics (wasm_vm_pool_*
// family). Counters are poked at checkout/recycle events — rare next to
// dispatch — so the pool carries no per-instruction telemetry cost.
type PoolInstruments struct {
	Hits          *Counter
	Misses        *Counter
	Recycles      *Counter
	ColdFallbacks *Counter
	Evictions     *Counter
	Discards      *Counter
	Live          *Gauge
	Idle          *Gauge
}

// NewPoolInstruments registers the wasm_vm_pool_* metric family on r
// (nil r → nil).
func NewPoolInstruments(r *Registry) *PoolInstruments {
	if r == nil {
		return nil
	}
	return &PoolInstruments{
		Hits:          r.Counter("wasm_vm_pool_hits_total", "checkouts served by an instance recycled to its post-init snapshot"),
		Misses:        r.Counter("wasm_vm_pool_misses_total", "checkouts that cloned a fresh instance from the snapshot"),
		Recycles:      r.Counter("wasm_vm_pool_recycles_total", "instances reset to their post-init snapshot and returned to the pool"),
		ColdFallbacks: r.Counter("wasm_vm_pool_cold_fallbacks_total", "checkouts served cold because the bounded pool was exhausted"),
		Evictions:     r.Counter("wasm_vm_pool_evictions_total", "idle instances discarded to make room for another config shape"),
		Discards:      r.Counter("wasm_vm_pool_discards_total", "instances dropped instead of recycled (failed reset or clone)"),
		Live:          r.Gauge("wasm_vm_pool_live_instances", "pool-tracked instances currently alive (checked out + idle)"),
		Idle:          r.Gauge("wasm_vm_pool_idle_instances", "recycled instances currently waiting in the pool"),
	}
}

// JSInstruments are the JS engine's live metrics.
type JSInstruments struct {
	Runs         *Counter
	Steps        *Counter
	Cycles       *Counter
	JITCompiles  *Counter
	GCCycles     *Counter
	GCFreedBytes *Counter
	PeakHeap     *Gauge
}

// NewJSInstruments registers the js_* metric family on r (nil r → nil).
func NewJSInstruments(r *Registry) *JSInstruments {
	if r == nil {
		return nil
	}
	return &JSInstruments{
		Runs:         r.Counter("js_runs_total", "top-level program or function entries completed"),
		Steps:        r.Counter("js_steps_total", "dynamic evaluation steps executed"),
		Cycles:       r.Counter("js_cycles_total", "virtual cycles charged by the JS engine"),
		JITCompiles:  r.Counter("js_jit_compiles_total", "code objects promoted to the optimizing JIT tier (§4.4.1)"),
		GCCycles:     r.Counter("js_gc_cycles_total", "mark-sweep collections (§4.6)"),
		GCFreedBytes: r.Counter("js_gc_freed_bytes_total", "heap + external bytes reclaimed by GC"),
		PeakHeap:     r.Gauge("js_heap_peak_bytes", "largest JS-heap high-water mark seen"),
	}
}

// CompilerInstruments are the toolchain's live metrics.
type CompilerInstruments struct {
	Compiles *Counter
	PassWork *Histogram
}

// NewCompilerInstruments registers the compiler_* metric family on r.
func NewCompilerInstruments(r *Registry) *CompilerInstruments {
	if r == nil {
		return nil
	}
	return &CompilerInstruments{
		Compiles: r.Counter("compiler_compiles_total", "full pipeline runs completed"),
		PassWork: r.Histogram("compiler_pass_work_cycles", "per-pass deterministic work estimate (virtual cycles)", CycleBuckets()),
	}
}

// CacheInstruments are the harness artifact cache's live metrics. The
// cache already tallies these internally for the end-of-run summary; the
// instruments make them visible mid-sweep.
type CacheInstruments struct {
	Hits       *Counter
	Misses     *Counter
	DedupWaits *Counter
}

// NewCacheInstruments registers the compiler_cache_* metric family on r.
func NewCacheInstruments(r *Registry) *CacheInstruments {
	if r == nil {
		return nil
	}
	return &CacheInstruments{
		Hits:       r.Counter("compiler_cache_hits_total", "artifact-cache lookups satisfied without compiling"),
		Misses:     r.Counter("compiler_cache_misses_total", "artifact-cache lookups that ran the pipeline"),
		DedupWaits: r.Counter("compiler_cache_dedup_waits_total", "lookups that waited on an identical in-flight compile"),
	}
}

// HarnessInstruments are the sweep driver's live metrics.
type HarnessInstruments struct {
	CellsDone      *Counter
	CellWall       *Histogram // wall seconds per cell, end to end
	CellCompile    *Histogram // wall seconds spent compiling per cell
	CellMeasure    *Histogram // wall seconds spent measuring per cell
	CellCycles     *Histogram // virtual cycles per cell (sum over reps)
	QueueDepth     *Gauge
	Faults         *Counter
	Checkpoints    *Counter
	FlightFailures *Counter
}

// NewHarnessInstruments registers the harness_* metric family on r.
func NewHarnessInstruments(r *Registry) *HarnessInstruments {
	if r == nil {
		return nil
	}
	return &HarnessInstruments{
		CellsDone:      r.Counter("harness_cells_done_total", "matrix cells completed (ok or failed)"),
		CellWall:       r.Histogram("harness_cell_wall_seconds", "end-to-end wall time per cell", TimeBuckets()),
		CellCompile:    r.Histogram("harness_cell_compile_seconds", "compile wall time per cell", TimeBuckets()),
		CellMeasure:    r.Histogram("harness_cell_measure_seconds", "measurement wall time per cell", TimeBuckets()),
		CellCycles:     r.Histogram("harness_cell_cycles", "virtual cycles per cell across reps", CycleBuckets()),
		QueueDepth:     r.Gauge("harness_queue_depth", "cells enqueued but not yet claimed by a worker"),
		Faults:         r.Counter("harness_faults_total", "injected faults observed during attempts"),
		Checkpoints:    r.Counter("harness_checkpoints_total", "cells restored from a JSONL checkpoint"),
		FlightFailures: r.Counter("harness_flight_dumps_total", "flight-recorder dumps frozen on cell failure"),
	}
}

// ServeInstruments are the benchserve daemon's live metrics: the
// admission funnel (requests → admitted|shed|rejected), terminal
// outcomes (served|failed|timeout|canceled), breaker activity, and the
// two latency splits that matter under load — time queued vs time
// running.
type ServeInstruments struct {
	Requests     *Counter
	Admitted     *Counter
	Shed         *Counter // load-shed with 429 + Retry-After (bounded queue full, or injected)
	Rejected     *Counter // refused by an injected admission fault or drain
	Served       *Counter
	Failed       *Counter
	Timeouts     *Counter
	Canceled     *Counter
	BreakerOpen  *Counter // requests refused by an open circuit breaker
	BreakerTrips *Counter // closed→open transitions
	QueueDepth   *Gauge
	InFlight     *Gauge
	QueueWait    *Histogram // seconds between admission and worker pickup
	RunWall      *Histogram // seconds between worker pickup and terminal response
}

// NewServeInstruments registers the serve_* metric family on r.
func NewServeInstruments(r *Registry) *ServeInstruments {
	if r == nil {
		return nil
	}
	return &ServeInstruments{
		Requests:     r.Counter("serve_requests_total", "run requests received (any outcome)"),
		Admitted:     r.Counter("serve_admitted_total", "requests admitted into the bounded queue"),
		Shed:         r.Counter("serve_shed_total", "requests load-shed with 429 + Retry-After"),
		Rejected:     r.Counter("serve_rejected_total", "requests refused at admission (drain or injected fault)"),
		Served:       r.Counter("serve_served_total", "requests completed successfully"),
		Failed:       r.Counter("serve_failed_total", "requests that ran and failed"),
		Timeouts:     r.Counter("serve_timeouts_total", "requests that exceeded their deadline"),
		Canceled:     r.Counter("serve_canceled_total", "requests canceled by drain or client disconnect"),
		BreakerOpen:  r.Counter("serve_breaker_open_total", "requests refused by an open circuit breaker"),
		BreakerTrips: r.Counter("serve_breaker_trips_total", "circuit-breaker closed-to-open transitions"),
		QueueDepth:   r.Gauge("serve_queue_depth", "admitted requests not yet claimed by a worker"),
		InFlight:     r.Gauge("serve_in_flight", "requests currently executing"),
		QueueWait:    r.Histogram("serve_queue_wait_seconds", "time between admission and worker pickup", TimeBuckets()),
		RunWall:      r.Histogram("serve_run_wall_seconds", "time between worker pickup and terminal response", TimeBuckets()),
	}
}
