package harness

// This file wires the wasmvm instance pool into the parallel harness. The
// insight is the same one behind the artifact cache: a long-running server
// measures each compiled artifact under many browser profiles and many
// requests, so the artifact's post-init snapshot — like its compiled
// module — can be shared. One InstancePool per artifact fingerprint serves
// every profile, because the snapshot is config-independent: the first
// checkout captures it and every later one clones it, skipping module
// validation, lowering, and instantiation.

import (
	"sync"

	"wasmbench/internal/compiler"
	"wasmbench/internal/telemetry"
	"wasmbench/internal/wasmvm"
)

// VMPools is a caller-owned set of per-artifact instance pools shared
// across many harness runs — the substrate a long-running server keeps so
// requests after an artifact's first are served from snapshot clones. Pass
// it via RunOptions.SharedVMPools. Safe for concurrent use from
// overlapping RunCellsWith calls.
type VMPools struct {
	mu    sync.Mutex
	inst  *telemetry.PoolInstruments
	pools map[string]*wasmvm.InstancePool
	// cache, when set, bounds the set: a pool lives only while cache holds
	// its artifact (see NewVMPools).
	cache *ArtifactCache
	// retired sums the checkout counters of dropped pools, so the set's
	// counters never go backwards.
	retired wasmvm.PoolStats
}

// NewVMPools builds a shared pool set whose per-artifact pools hold at
// most DefaultWorkers()+1 live instances, so a full worker pool never
// waits on a checkout; reg, when non-nil, receives the pools' checkout
// counters as wasm_vm_pool_* metrics. With a cache (the one the runs
// compile through) the set keeps a pool only while the cache holds its
// artifact: an eviction drops the pool, so MaxCachedArtifacts bounds both.
// A cache bounds one pool set; nil leaves the set unbounded.
func NewVMPools(reg *telemetry.Registry, cache *ArtifactCache) *VMPools {
	vp := &VMPools{
		inst:  telemetry.NewPoolInstruments(reg),
		pools: make(map[string]*wasmvm.InstancePool),
	}
	if cache != nil {
		vp.cache = cache
		cache.mu.Lock()
		cache.onEvict = vp.drop
		cache.mu.Unlock()
	}
	return vp
}

// poolFor returns the pool for an artifact fingerprint, creating it on
// first use. Pools are created with ColdFallback on: a saturated pool
// degrades a checkout to a cold instantiation rather than blocking a
// harness worker behind another cell. nil receiver, JS artifacts, and
// artifacts without a module all yield nil (→ cold path).
func (vp *VMPools) poolFor(fp string, art *compiler.Artifact) *wasmvm.InstancePool {
	if vp == nil || art == nil || art.Module == nil {
		return nil
	}
	vp.mu.Lock()
	defer vp.mu.Unlock()
	p := vp.pools[fp]
	if p == nil {
		if vp.cache != nil && !vp.cache.holds(fp) {
			return nil // evicted since this cell compiled: measure cold
		}
		p = wasmvm.NewInstancePool(art.Module, len(art.WasmBinary), wasmvm.PoolOptions{
			MaxInstances: DefaultWorkers() + 1,
			ColdFallback: true,
			Instruments:  vp.inst,
		})
		vp.pools[fp] = p
	}
	return p
}

// drop forgets the pool of an evicted artifact and its snapshot; its
// checkout counters move to retired.
func (vp *VMPools) drop(fp string) {
	vp.mu.Lock()
	defer vp.mu.Unlock()
	if p := vp.pools[fp]; p != nil {
		s := p.Stats()
		s.Live = 0
		addPoolStats(&vp.retired, s)
		delete(vp.pools, fp)
	}
}

// Stats aggregates the checkout counters across every per-artifact pool,
// dropped ones included.
func (vp *VMPools) Stats() wasmvm.PoolStats {
	var agg wasmvm.PoolStats
	if vp == nil {
		return agg
	}
	vp.mu.Lock()
	agg = vp.retired
	pools := make([]*wasmvm.InstancePool, 0, len(vp.pools))
	for _, p := range vp.pools {
		pools = append(pools, p)
	}
	vp.mu.Unlock()
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
	agg.Live += s.Live
}

// PoolCount reports how many per-artifact pools the set holds.
func (vp *VMPools) PoolCount() int {
	if vp == nil {
		return 0
	}
	vp.mu.Lock()
	defer vp.mu.Unlock()
	return len(vp.pools)
}
