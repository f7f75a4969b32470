package harness

// This file wires the wasmvm instance pool into the parallel harness. The
// insight is the same one behind the artifact cache: a sweep measures each
// compiled artifact under many browser profiles, so the artifact's post-init
// snapshot — like its compiled module — can be shared across the worker
// pool. One InstancePool per artifact fingerprint serves all six profiles:
// the snapshot is config-independent, while each profile's cost-table shape
// gets its own recycled free list. Cells that differ only in profile then
// skip module validation, lowering, and data-segment init entirely, and
// steady-state sweeps reuse reset instances.

import (
	"sync"

	"wasmbench/internal/compiler"
	"wasmbench/internal/telemetry"
	"wasmbench/internal/wasmvm"
)

// vmPoolSet shares one InstancePool per artifact fingerprint across the
// worker pool (and, when passed between runs, across sweeps). Safe for
// concurrent use.
type vmPoolSet struct {
	mu    sync.Mutex
	size  int
	inst  *telemetry.PoolInstruments
	pools map[string]*wasmvm.InstancePool
	// cache, when set, bounds the set: a pool lives only while cache holds
	// its artifact (see NewVMPools).
	cache *ArtifactCache
	// retired sums the checkout counters of dropped pools, so the set's
	// counters never go backwards.
	retired wasmvm.PoolStats
}

// newVMPoolSet bounds each pool at size live instances: one per worker
// plus a spare keeps a full worker pool from ever blocking on checkout
// even before recycling starts.
func newVMPoolSet(size int, inst *telemetry.PoolInstruments) *vmPoolSet {
	return &vmPoolSet{size: size, inst: inst, pools: make(map[string]*wasmvm.InstancePool)}
}

// poolFor returns the pool for an artifact fingerprint, creating it on
// first use. Pools are created with ColdFallback on: a saturated pool
// degrades a checkout to a cold instantiation rather than blocking a
// harness worker behind another cell. nil receiver, JS artifacts, and
// artifacts without a module all yield nil (→ cold path).
func (ps *vmPoolSet) poolFor(fp string, art *compiler.Artifact) *wasmvm.InstancePool {
	if ps == nil || art == nil || art.Module == nil {
		return nil
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	p := ps.pools[fp]
	if p == nil {
		if ps.cache != nil && !ps.cache.holds(fp) {
			return nil // evicted since this cell compiled: measure cold
		}
		p = wasmvm.NewInstancePool(art.Module, len(art.WasmBinary), wasmvm.PoolOptions{
			MaxInstances: ps.size,
			ColdFallback: true,
			Instruments:  ps.inst,
		})
		ps.pools[fp] = p
	}
	return p
}

// drop forgets the pool of an evicted artifact. Its instances go with it;
// its checkout counters move to retired.
func (ps *vmPoolSet) drop(fp string) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if p := ps.pools[fp]; p != nil {
		s := p.Stats()
		s.Live, s.Idle = 0, 0
		addPoolStats(&ps.retired, s)
		delete(ps.pools, fp)
	}
}

// stats aggregates the checkout counters across every pool in the set,
// dropped ones included.
func (ps *vmPoolSet) stats() wasmvm.PoolStats {
	var agg wasmvm.PoolStats
	if ps == nil {
		return agg
	}
	ps.mu.Lock()
	agg = ps.retired
	pools := make([]*wasmvm.InstancePool, 0, len(ps.pools))
	for _, p := range ps.pools {
		pools = append(pools, p)
	}
	ps.mu.Unlock()
	for _, p := range pools {
		addPoolStats(&agg, p.Stats())
	}
	return agg
}

func addPoolStats(agg *wasmvm.PoolStats, s wasmvm.PoolStats) {
	agg.Hits += s.Hits
	agg.Misses += s.Misses
	agg.Recycles += s.Recycles
	agg.ColdFallbacks += s.ColdFallbacks
	agg.Evictions += s.Evictions
	agg.Discards += s.Discards
	agg.Live += s.Live
	agg.Idle += s.Idle
}

// poolCount returns how many per-artifact pools the set holds.
func (ps *vmPoolSet) poolCount() int {
	if ps == nil {
		return 0
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.pools)
}

// VMPools is a caller-owned warm-instance pool set shared across many
// harness runs — the substrate a long-running server keeps so requests
// after the first are served from recycled, snapshot-reset VMs. Pass it
// via RunOptions.SharedVMPools (with VMPool set). Safe for concurrent use
// from overlapping RunCellsWith calls.
type VMPools struct {
	set *vmPoolSet
}

// NewVMPools builds a shared pool set whose per-artifact pools hold at
// most DefaultWorkers()+1 live instances; reg, when non-nil, receives the
// pools' checkout counters as wasm_vm_pool_* metrics. With a cache (the
// one the runs compile through) the set keeps a pool only while the cache
// holds its artifact: an eviction drops the pool, so MaxCachedArtifacts
// bounds both. A cache bounds one pool set; nil leaves the set unbounded.
func NewVMPools(reg *telemetry.Registry, cache *ArtifactCache) *VMPools {
	set := newVMPoolSet(DefaultWorkers()+1, telemetry.NewPoolInstruments(reg))
	if cache != nil {
		set.cache = cache
		cache.mu.Lock()
		cache.onEvict = set.drop
		cache.mu.Unlock()
	}
	return &VMPools{set: set}
}

// Stats aggregates checkout counters across every per-artifact pool.
func (vp *VMPools) Stats() wasmvm.PoolStats {
	if vp == nil {
		return wasmvm.PoolStats{}
	}
	return vp.set.stats()
}

// PoolCount reports how many per-artifact pools the set holds.
func (vp *VMPools) PoolCount() int {
	if vp == nil {
		return 0
	}
	return vp.set.poolCount()
}
