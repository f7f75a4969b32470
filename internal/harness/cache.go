package harness

import (
	"sync"

	"wasmbench/internal/compiler"
	"wasmbench/internal/faultinject"
	"wasmbench/internal/telemetry"
)

// CacheStats are an ArtifactCache's lookup counters. Hits resolve
// instantly from a completed compile, Misses trigger a compile, and
// DedupWaits are lookups that arrived while another goroutine was already
// compiling the same key and blocked for its result (the singleflight
// path — still only one compile per key).
type CacheStats struct {
	Hits, Misses, DedupWaits int
}

// Lookups returns the total number of cache queries.
func (s CacheStats) Lookups() int { return s.Hits + s.Misses + s.DedupWaits }

// ArtifactCache is a content-addressed compile cache with singleflight
// deduplication. Keys are compiler.Fingerprint values — (source hash, size
// defines, opt level, toolchain, target) — so any two cells that would
// produce the same artifact share one compilation no matter how many
// browser profiles measure it, across goroutines and across runs when the
// caller reuses the cache.
//
// Compilation is deterministic, so caching never changes a CellResult:
// virtual cycles, stats, and trace bytes are identical with the cache on
// or off (errors are cached and replayed identically too). Safe for
// concurrent use; artifacts are immutable after compilation and may be
// shared by concurrent measurements.
type ArtifactCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	stats   CacheStats
	// inst mirrors the stats counters onto live telemetry instruments and
	// compInst threads pass-level compiler instruments into cache-miss
	// compiles (nil = none; see SetInstruments).
	inst     *telemetry.CacheInstruments
	compInst *telemetry.CompilerInstruments
}

type cacheEntry struct {
	ready chan struct{} // closed when art/err are final
	art   *compiler.Artifact
	err   error
}

// NewArtifactCache returns an empty cache.
func NewArtifactCache() *ArtifactCache {
	return &ArtifactCache{entries: make(map[string]*cacheEntry)}
}

// CompileCell returns the artifact for c, compiling at most once per
// fingerprint. hit reports whether this call avoided a compile (a cache
// hit or a dedup wait on another goroutine's in-flight compile).
func (ac *ArtifactCache) CompileCell(c Cell) (art *compiler.Artifact, hit bool, err error) {
	return ac.compileCell(c, nil)
}

// compileCell is CompileCell with an optional fault plan threaded into the
// toolchain. The plan never enters the cache key (Fingerprint hashes only
// the compilation inputs), and injected failures are never cached: the
// entry is removed before waiters are released, so a later request
// recompiles instead of replaying an injected fault forever (serve
// requests share one cache: a cached drill failure would poison every
// request after it).
func (ac *ArtifactCache) compileCell(c Cell, faults *faultinject.Plan) (art *compiler.Artifact, hit bool, err error) {
	key := c.Fingerprint()
	ac.mu.Lock()
	if e, ok := ac.entries[key]; ok {
		select {
		case <-e.ready:
			ac.stats.Hits++
			if ac.inst != nil {
				ac.inst.Hits.Inc()
			}
			ac.mu.Unlock()
		default:
			ac.stats.DedupWaits++
			if ac.inst != nil {
				ac.inst.DedupWaits.Inc()
			}
			ac.mu.Unlock()
			<-e.ready
		}
		return e.art, true, e.err
	}
	e := &cacheEntry{ready: make(chan struct{})}
	ac.entries[key] = e
	ac.stats.Misses++
	if ac.inst != nil {
		ac.inst.Misses.Inc()
	}
	compInst := ac.compInst
	ac.mu.Unlock()

	opts := cellOptions(c)
	opts.Faults = faults
	opts.Instruments = compInst
	e.art, e.err = compiler.Compile(c.Bench.Source, opts)
	if e.err != nil && faultinject.IsInjected(e.err) {
		ac.mu.Lock()
		delete(ac.entries, key)
		ac.mu.Unlock()
	}
	close(e.ready)
	return e.art, false, e.err
}

// SetInstruments mirrors future lookup counters onto live telemetry
// instruments and threads compiler pass instruments into cache-miss
// compiles (nil detaches either). The internal stats are unaffected, and
// neither bundle enters the cache key.
func (ac *ArtifactCache) SetInstruments(inst *telemetry.CacheInstruments, compInst *telemetry.CompilerInstruments) {
	ac.mu.Lock()
	ac.inst = inst
	ac.compInst = compInst
	ac.mu.Unlock()
}

// Stats returns a snapshot of the lookup counters.
func (ac *ArtifactCache) Stats() CacheStats {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return ac.stats
}

// Len returns the number of distinct artifacts (including cached failures).
func (ac *ArtifactCache) Len() int {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return len(ac.entries)
}
