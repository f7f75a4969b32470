package harness

import (
	"container/list"
	"sync"

	"wasmbench/internal/compiler"
	"wasmbench/internal/faultinject"
	"wasmbench/internal/telemetry"
)

// CacheStats are an ArtifactCache's lookup counters. Hits resolve
// instantly from a completed compile, Misses trigger a compile, and
// DedupWaits are lookups that arrived while another goroutine was already
// compiling the same key and blocked for its result (the singleflight
// path — still only one compile per key). Evictions counts completed
// entries dropped past the cache's entry cap.
type CacheStats struct {
	Hits, Misses, DedupWaits int
	Evictions                int
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
//
// The cache holds at most MaxCachedArtifacts completed entries, evicting
// the least recently used past that, so a long-lived server that keeps
// seeing new artifacts stays bounded. In-flight compiles are never
// evicted. No single paper run evicts: the largest one compiles fewer
// unique artifacts than the cap.
type ArtifactCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	// lru orders completed entries, most recently used first; its
	// elements' values are the entries' keys.
	lru   *list.List
	stats CacheStats
	// inst mirrors the stats counters onto live telemetry instruments and
	// compInst threads pass-level compiler instruments into cache-miss
	// compiles (nil = none; see SetInstruments).
	inst     *telemetry.CacheInstruments
	compInst *telemetry.CompilerInstruments
	// onEvict, when set, is told each evicted key once ac.mu is released
	// (NewVMPools drops the artifact's instance pool there).
	onEvict func(key string)
}

// MaxCachedArtifacts caps an ArtifactCache's completed entries. At about
// 130 KiB per XS artifact it bounds a server's cache near 64 MiB, and it
// sits above the 492 cells of the largest benchtab run.
const MaxCachedArtifacts = 512

type cacheEntry struct {
	ready chan struct{} // closed when art/err are final
	art   *compiler.Artifact
	err   error
	elem  *list.Element // position in lru once completed; nil while in flight
}

// NewArtifactCache returns an empty cache.
func NewArtifactCache() *ArtifactCache {
	return &ArtifactCache{entries: make(map[string]*cacheEntry), lru: list.New()}
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
			if e.elem != nil {
				ac.lru.MoveToFront(e.elem)
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
	var evicted []string
	ac.mu.Lock()
	if e.err != nil && faultinject.IsInjected(e.err) {
		delete(ac.entries, key)
	} else {
		e.elem = ac.lru.PushFront(key)
		for ac.lru.Len() > MaxCachedArtifacts {
			evicted = append(evicted, ac.evictOldest())
		}
	}
	onEvict := ac.onEvict
	ac.mu.Unlock()
	close(e.ready)
	if onEvict != nil {
		for _, k := range evicted {
			onEvict(k)
		}
	}
	return e.art, false, e.err
}

// evictOldest drops the least recently used completed entry and returns
// its key. Callers hold ac.mu. Goroutines already holding the entry keep
// its artifact.
func (ac *ArtifactCache) evictOldest() string {
	oldest := ac.lru.Back()
	ac.lru.Remove(oldest)
	key := oldest.Value.(string)
	delete(ac.entries, key)
	ac.stats.Evictions++
	return key
}

// holds reports whether key has an entry, in flight or completed.
func (ac *ArtifactCache) holds(key string) bool {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	_, ok := ac.entries[key]
	return ok
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

// Len returns the number of distinct artifacts held, in flight or completed
// (including cached failures).
func (ac *ArtifactCache) Len() int {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return len(ac.entries)
}
