package wasmvm

// This file implements the concurrent pooled-instance layer above
// snapshot.go. An InstancePool owns up to MaxInstances live VMs for one
// module and hands them out by config shape: a checkout is served from the
// recycled free list when a matching instance exists, cloned from the
// post-init snapshot otherwise, and — when the bound is reached — either
// blocks, evicts an idle instance of another shape, or falls back to an
// untracked cold instantiation (never an error) per PoolOptions.
//
// The pool is a host-time optimization under the same determinism contract
// as snapshot.go: every checkout, however it is served, starts from the
// exact virtual state a cold New()+Instantiate() would produce, so virtual
// metrics are byte-identical between pooled and cold runs.
//
// A pool holds one snapshot: the lowered code it shares is
// config-independent. Free instances and warm register-form bodies are
// keyed by the full configShape, because register bodies bake OptCost at
// translation time.

import (
	"sync"

	"wasmbench/internal/telemetry"
	"wasmbench/internal/wasm"
)

// configShape is the comparable projection of a Config that determines
// whether two instances are interchangeable: every field except the per-run
// attachments (Tracer, Profile, Faults, Instruments), which attach() swaps
// at checkout. Defaults are normalized so a zero-field config matches an
// instance whose constructor already resolved them.
type configShape struct {
	basicCost            CostTable
	optCost              CostTable
	compileBasicPerInstr float64
	compileOptPerInstr   float64
	tierUpThreshold      uint64
	mode                 TierMode
	decodePerByte        float64
	instantiateCost      float64
	growBoundaryCost     float64
	growGranularity      uint32
	maxPages             uint32
	stepLimit            uint64
	callDepthLimit       int
	disableAOTTier       bool
}

func shapeOf(cfg Config) configShape {
	s := configShape{
		basicCost:            cfg.BasicCost,
		optCost:              cfg.OptCost,
		compileBasicPerInstr: cfg.CompileBasicPerInstr,
		compileOptPerInstr:   cfg.CompileOptPerInstr,
		tierUpThreshold:      cfg.TierUpThreshold,
		mode:                 cfg.Mode,
		decodePerByte:        cfg.DecodePerByte,
		instantiateCost:      cfg.InstantiateCost,
		growBoundaryCost:     cfg.GrowBoundaryCost,
		growGranularity:      cfg.GrowGranularityPages,
		maxPages:             cfg.MaxPages,
		stepLimit:            cfg.StepLimit,
		callDepthLimit:       cfg.CallDepthLimit,
		disableAOTTier:       cfg.DisableAOTTier,
	}
	// Mirror the defaults New/NewVM/NewMemory resolve, so Config{} and its
	// resolved form land in the same bucket.
	if s.maxPages == 0 {
		s.maxPages = wasm.MaxPages
	}
	if s.callDepthLimit == 0 {
		s.callDepthLimit = 10000
	}
	if s.growGranularity == 0 {
		s.growGranularity = 1
	}
	return s
}

// PoolStats is a point-in-time snapshot of an InstancePool's counters.
type PoolStats struct {
	Hits          int // checkouts served by a recycled instance
	Misses        int // checkouts that cloned (or captured) a fresh instance
	Recycles      int // instances returned to the pool for reuse (reset on their next checkout)
	ColdFallbacks int // checkouts served untracked because the pool was full
	Evictions     int // idle instances dropped to make room for another shape
	Discards      int // instances dropped because they could not be reset
	Live          int // tracked instances currently alive (checked out + idle)
	Idle          int // recycled instances currently waiting in the pool
}

// PoolOptions configures an InstancePool.
type PoolOptions struct {
	// MaxInstances bounds tracked live instances (checked out + idle).
	// 0 means 1: a pool is pointless without at least one recyclable slot.
	MaxInstances int
	// ColdFallback serves checkouts past the bound with an untracked cold
	// instantiation instead of blocking. Put drops such instances silently.
	ColdFallback bool
	// Instruments publishes wasm_vm_pool_* counters; nil is inert.
	Instruments *telemetry.PoolInstruments
}

// InstancePool is a bounded, concurrency-safe pool of snapshot-backed VM
// instances for one module. Checkouts via Get, returns via Put; instances
// are recycled with Reset rather than discarded. Safe for concurrent use.
type InstancePool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	module  *wasm.Module
	binSize int
	opts    PoolOptions

	snap  *Snapshot // captured by the first checkout
	free  map[configShape][]*VM
	warm  map[configShape][]warmBody // donated register bodies, by func index
	live  int
	stats PoolStats
}

// warmBody is a donated register-form translation: the immutable rop body
// plus the frame-size metadata translateReg derives with it (the register
// frame is locals + maxStack; adopting one without the other under-sizes
// every frame).
type warmBody struct {
	code     []rop
	maxStack int32
}

// NewInstancePool creates a pool for the given module. The snapshot is
// captured lazily on the first checkout — the capture instance itself is
// returned as that checkout's result, so no instantiation work is ever
// thrown away.
func NewInstancePool(m *wasm.Module, binarySize int, opts PoolOptions) *InstancePool {
	if opts.MaxInstances <= 0 {
		opts.MaxInstances = 1
	}
	p := &InstancePool{
		module:  m,
		binSize: binarySize,
		opts:    opts,
		free:    make(map[configShape][]*VM),
		warm:    make(map[configShape][]warmBody),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Get checks out an instantiated VM for cfg. recycled reports whether the
// instance was served from the free list (callers surface this in run
// metadata). The caller must rebind host imports — recycled instances carry
// the previous run's bindings — and must hand the instance back with Put.
//
// When the pool is at capacity with no matching idle instance, Get evicts
// an idle instance of another shape if one exists; otherwise it either
// blocks until Put frees a slot or, with ColdFallback, returns an untracked
// cold instance. Get never fails for capacity reasons.
func (p *InstancePool) Get(cfg Config) (vm *VM, recycled bool, err error) {
	shape := shapeOf(cfg)
	p.mu.Lock()
	for {
		if list := p.free[shape]; len(list) > 0 {
			vm = list[len(list)-1]
			list[len(list)-1] = nil
			p.free[shape] = list[:len(list)-1]
			p.mu.Unlock()
			// Idle instances hold no linear memory: the reset that rebuilds
			// it happens here, on reuse, outside the lock.
			resetErr := vm.Reset()
			p.mu.Lock()
			if resetErr != nil {
				p.discardLocked(vm)
				continue // its slot is free: clone instead
			}
			p.stats.Hits++
			p.publishLocked(func(pi *telemetry.PoolInstruments) {
				pi.Hits.Inc()
				pi.Idle.Set(float64(p.idleLocked()))
			})
			p.mu.Unlock()
			vm.attach(cfg)
			return vm, true, nil
		}
		if p.live < p.opts.MaxInstances {
			return p.makeLocked(cfg, shape)
		}
		if p.evictLocked() {
			continue // a slot just opened
		}
		if p.opts.ColdFallback {
			p.stats.ColdFallbacks++
			p.publishLocked(func(pi *telemetry.PoolInstruments) { pi.ColdFallbacks.Inc() })
			p.mu.Unlock()
			vm, err = p.coldVM(cfg)
			return vm, false, err
		}
		p.cond.Wait()
	}
}

// makeLocked serves a miss while p.mu is held: it reserves a live slot,
// then either captures the pool's snapshot (returning the capture instance
// itself) or clones from the existing snapshot outside the lock.
func (p *InstancePool) makeLocked(cfg Config, shape configShape) (*VM, bool, error) {
	p.live++
	p.stats.Misses++
	p.publishLocked(func(pi *telemetry.PoolInstruments) {
		pi.Misses.Inc()
		pi.Live.Set(float64(p.live))
	})
	snap := p.snap
	if snap == nil {
		// First checkout: instantiate cold, capture, and hand the capture
		// instance out as the result. Capture under the lock is deliberate —
		// it happens once per pool lifetime, and it keeps concurrent first
		// checkouts from racing to capture.
		vm, err := p.coldVM(cfg)
		if err != nil {
			p.releaseLocked()
			p.mu.Unlock()
			return nil, false, err
		}
		snap, err := vm.Snapshot()
		if err != nil {
			p.releaseLocked()
			p.mu.Unlock()
			return nil, false, err
		}
		p.snap = snap
		vm.pool = p
		p.mu.Unlock()
		return vm, false, nil
	}
	warm := p.warm[shape]
	p.mu.Unlock()
	vm, err := snap.NewVM(cfg)
	if err != nil {
		// Unreachable for capacity reasons; release the reserved slot
		// regardless.
		p.mu.Lock()
		p.releaseLocked()
		p.mu.Unlock()
		return nil, false, err
	}
	if warm != nil {
		// Adopt donated register bodies. Entries are written once under the
		// pool lock and immutable afterwards, and the slice header was read
		// under the lock above, so this read is race-free. Adopted bodies
		// only skip translateReg — aotBody still replays its fault check,
		// counters, and instruments as if it had translated.
		p.mu.Lock()
		for i := range warm {
			if warm[i].code != nil && vm.funcs[i].regCode == nil {
				vm.funcs[i].regCode = warm[i].code
				vm.funcs[i].maxStack = warm[i].maxStack
			}
		}
		p.mu.Unlock()
	}
	vm.pool = p
	return vm, false, nil
}

// Put returns a checked-out instance to the pool. Instances the pool does
// not own (cold fallbacks, nil) are dropped silently. An instance still
// inside a call cannot be reset, so it is discarded and its slot freed
// rather than poisoning the pool. Otherwise the instance is parked without
// its linear memory (an idle instance holds none) and reset by the Get
// that reuses it.
func (p *InstancePool) Put(vm *VM) {
	if vm == nil || vm.pool != p {
		return
	}
	if vm.depth != 0 {
		p.mu.Lock()
		p.discardLocked(vm)
		p.mu.Unlock()
		return
	}
	if vm.mem != nil {
		vm.mem.data = nil
	}
	vm.attach(Config{}) // drop per-run attachments while idle
	shape := shapeOf(vm.cfg)
	p.mu.Lock()
	p.donateLocked(shape, vm)
	p.free[shape] = append(p.free[shape], vm)
	p.stats.Recycles++
	p.publishLocked(func(pi *telemetry.PoolInstruments) {
		pi.Recycles.Inc()
		pi.Idle.Set(float64(p.idleLocked()))
	})
	p.cond.Signal()
	p.mu.Unlock()
}

// discardLocked drops an instance the pool cannot recycle and frees its
// slot.
func (p *InstancePool) discardLocked(vm *VM) {
	vm.pool = nil
	p.stats.Discards++
	p.publishLocked(func(pi *telemetry.PoolInstruments) { pi.Discards.Inc() })
	p.releaseLocked()
}

// donateLocked stores the instance's translated register bodies in the
// shape's warm store so future clones skip translateReg. AOT bodies are
// never donated: their superblock closures capture the owning instance's
// globals slice and *Memory at translation time.
func (p *InstancePool) donateLocked(shape configShape, vm *VM) {
	var store []warmBody
	for i := range vm.funcs {
		cf := &vm.funcs[i]
		if cf.regCode == nil {
			continue
		}
		if store == nil {
			if store = p.warm[shape]; store == nil {
				store = make([]warmBody, len(vm.funcs))
				p.warm[shape] = store
			}
		}
		if store[i].code == nil {
			store[i] = warmBody{code: cf.regCode, maxStack: cf.maxStack}
		}
	}
}

// evictLocked discards one idle instance to open a slot for another shape.
// Reports whether a slot was freed.
func (p *InstancePool) evictLocked() bool {
	for shape, list := range p.free {
		if len(list) == 0 {
			continue
		}
		vm := list[len(list)-1]
		list[len(list)-1] = nil
		p.free[shape] = list[:len(list)-1]
		vm.pool = nil
		p.stats.Evictions++
		p.publishLocked(func(pi *telemetry.PoolInstruments) {
			pi.Evictions.Inc()
			pi.Idle.Set(float64(p.idleLocked()))
		})
		p.releaseLocked()
		return true
	}
	return false
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

func (p *InstancePool) idleLocked() int {
	n := 0
	for _, list := range p.free {
		n += len(list)
	}
	return n
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
	s.Idle = p.idleLocked()
	return s
}
