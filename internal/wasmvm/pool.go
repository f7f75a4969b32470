package wasmvm

// This file implements the concurrent instance pool above snapshot.go. An
// InstancePool is a lazily captured post-init snapshot of one module plus
// a bound on the instances checked out of it: the first checkout
// instantiates cold and captures the snapshot, every later checkout clones
// it, and past the bound a checkout either blocks until Put frees a slot
// or, under ColdFallback, is served by an untracked cold instantiation
// (never an error). Put frees the slot and keeps nothing.
//
// The pool never recycles an instance. A clone costs microseconds against
// requests of milliseconds, and recycling measured within noise of cloning
// end to end (DESIGN.md "Instant instantiation"), so cloning is the one way
// a checkout gets a runnable instance.
//
// The pool is a host-time optimization under the same determinism contract
// as snapshot.go: every checkout, however it is served, starts from the
// exact virtual state a cold New()+Instantiate() would produce, so virtual
// metrics are byte-identical between pooled and cold runs. One snapshot
// serves every Config, because the lowered code it shares is
// config-independent.

import (
	"sync"

	"wasmbench/internal/telemetry"
	"wasmbench/internal/wasm"
)

// PoolStats is a point-in-time snapshot of an InstancePool's counters.
type PoolStats struct {
	Hits          int // checkouts served by cloning the snapshot
	Misses        int // checkouts that captured the snapshot
	Recycles      int // instances handed back by Put
	ColdFallbacks int // checkouts served untracked because the pool was full
	Live          int // tracked instances currently checked out
}

// PoolOptions configures an InstancePool.
type PoolOptions struct {
	// MaxInstances bounds the tracked instances checked out at once.
	// 0 means 1.
	MaxInstances int
	// ColdFallback serves checkouts past the bound with an untracked cold
	// instantiation instead of blocking. Put drops such instances silently.
	ColdFallback bool
	// Instruments publishes wasm_vm_pool_* counters; nil is inert.
	Instruments *telemetry.PoolInstruments
}

// InstancePool is a bounded, concurrency-safe source of snapshot-cloned VM
// instances for one module. Checkouts via Get, returns via Put.
type InstancePool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	module  *wasm.Module
	binSize int
	opts    PoolOptions

	snap  *Snapshot // captured by the first checkout
	live  int
	stats PoolStats
}

// NewInstancePool creates a pool for the given module. The snapshot is
// captured lazily on the first checkout — the capture instance itself is
// returned as that checkout's result, so no instantiation work is ever
// thrown away.
func NewInstancePool(m *wasm.Module, binarySize int, opts PoolOptions) *InstancePool {
	if opts.MaxInstances <= 0 {
		opts.MaxInstances = 1
	}
	p := &InstancePool{module: m, binSize: binarySize, opts: opts}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Get checks out an instantiated VM for cfg. cloned reports whether the
// instance was cloned from the snapshot; it is false for the capture
// checkout and for a cold fallback. The caller binds host imports and
// hands the instance back with Put.
//
// When the bound is reached, Get either blocks until Put frees a slot or,
// with ColdFallback, returns an untracked cold instance. Get never fails
// for capacity reasons.
func (p *InstancePool) Get(cfg Config) (vm *VM, cloned bool, err error) {
	p.mu.Lock()
	for p.live >= p.opts.MaxInstances {
		if p.opts.ColdFallback {
			p.stats.ColdFallbacks++
			p.publishLocked(func(pi *telemetry.PoolInstruments) { pi.ColdFallbacks.Inc() })
			p.mu.Unlock()
			vm, err = p.coldVM(cfg)
			return vm, false, err
		}
		p.cond.Wait()
	}
	p.live++
	p.publishLocked(func(pi *telemetry.PoolInstruments) { pi.Live.Set(float64(p.live)) })
	if p.snap == nil {
		// First checkout: instantiate cold, capture, and hand the capture
		// instance out as the result. Capture under the lock is deliberate:
		// it happens once per pool lifetime, and it keeps concurrent first
		// checkouts from racing to capture.
		vm, err = p.coldVM(cfg)
		if err == nil {
			p.snap, err = vm.Snapshot()
		}
		if err != nil {
			p.releaseLocked()
			p.mu.Unlock()
			return nil, false, err
		}
		p.stats.Misses++
		p.publishLocked(func(pi *telemetry.PoolInstruments) { pi.Misses.Inc() })
		p.mu.Unlock()
		vm.pool = p
		return vm, false, nil
	}
	snap := p.snap
	p.mu.Unlock()
	vm, err = snap.NewVM(cfg)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.releaseLocked()
		return nil, false, err
	}
	p.stats.Hits++
	p.publishLocked(func(pi *telemetry.PoolInstruments) { pi.Hits.Inc() })
	vm.pool = p
	return vm, true, nil
}

// Put hands a checked-out instance back, freeing its slot; the pool keeps
// nothing of it. Instances the pool does not own (cold fallbacks, nil, an
// instance already handed back) are ignored.
func (p *InstancePool) Put(vm *VM) {
	if vm == nil || vm.pool != p {
		return
	}
	vm.pool = nil
	p.mu.Lock()
	p.stats.Recycles++
	p.publishLocked(func(pi *telemetry.PoolInstruments) { pi.Recycles.Inc() })
	p.releaseLocked()
	p.mu.Unlock()
}

// releaseLocked frees a live slot and wakes one blocked Get.
func (p *InstancePool) releaseLocked() {
	p.live--
	p.publishLocked(func(pi *telemetry.PoolInstruments) { pi.Live.Set(float64(p.live)) })
	p.cond.Signal()
}

// coldVM builds a plain cold instance, exactly as a non-pooled caller would.
func (p *InstancePool) coldVM(cfg Config) (*VM, error) {
	vm, err := New(p.module, p.binSize, cfg)
	if err != nil {
		return nil, err
	}
	if err := vm.Instantiate(); err != nil {
		return nil, err
	}
	return vm, nil
}

func (p *InstancePool) publishLocked(f func(*telemetry.PoolInstruments)) {
	if p.opts.Instruments != nil {
		f(p.opts.Instruments)
	}
}

// Stats returns a point-in-time snapshot of the pool's counters.
func (p *InstancePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Live = p.live
	return s
}
