package wasmvm

// This file implements post-init instance snapshots — the Wizer-style
// pre-initialization answer to the paper's Finding 4: Wasm linear memory
// never shrinks, so at service scale the per-request cost that matters is
// instantiation, not compilation. A Snapshot captures a freshly
// instantiated VM's validated/lowered function bodies once, and NewVM
// clones runnable instances from it, skipping wasm.Validate and lowerFunc
// entirely. Reset returns a finished instance to the post-init state in
// place, so pools recycle instances instead of discarding them.
//
// The post-init image is the module itself: a module has no start
// function and nothing runs before Snapshot, so post-init linear memory is
// always Mem.Min zero pages with the data segments written over them, and
// every global holds its initializer. The snapshot therefore holds no
// memory image; Instantiate, NewVM and Reset all write the image from the
// module (initImage), which costs a fresh zeroed allocation plus the data
// segments instead of copying the whole heap.
//
// Determinism contract (the same one regalloc.go and aot.go established):
// snapshot restore is a *host-time* optimization only. Every clone and
// every Reset re-applies the full virtual instantiation charge —
// InstantiateCost, DecodePerByte×binSize, and the tier policy's compile
// charge — exactly as Instantiate() computes it, so cycles, steps,
// tallies, profiles, and traces are byte-identical to a cold New() +
// Instantiate() under the same Config.
//
// Sharing rules, derived from what the dispatch tiers capture:
//
//   - code []lop and heights []int32 are immutable after New() — shared
//     across all clones, whatever their Config.
//   - regCode []rop is pure data, never written after translation, but its
//     costs are precomputed from Config.OptCost — shareable only between
//     instances of the same config shape (the pool's warm-body store).
//   - AOT superblock closures capture the owning VM's globals slice and
//     *Memory at translation time — instance-bound, never shared. Reset
//     therefore rewrites globals and memory IN PLACE, which keeps a
//     recycled instance's retained AOT body valid.

import (
	"errors"

	"wasmbench/internal/wasm"
)

// Snapshot is an immutable post-init image of an instantiated module,
// valid for cloning under any Config (the lowered code it shares is
// config-independent; everything in a Config is applied per clone).
// Snapshots are safe for concurrent use.
type Snapshot struct {
	module  *wasm.Module
	binSize int
	// funcs are the lowered functions as New() left them; their code and
	// heights are shared by every clone, and no translated form exists
	// yet (nothing has run).
	funcs []compiledFunc
}

// Snapshot captures the VM's post-init state. It is valid only on a
// freshly instantiated VM — after Instantiate() and before any call — so
// the image is exactly what every cold instance starts from.
func (vm *VM) Snapshot() (*Snapshot, error) {
	if !vm.inited {
		return nil, errors.New("wasmvm: snapshot of an uninstantiated module")
	}
	if vm.depth != 0 || vm.stats.Steps != 0 {
		return nil, errors.New("wasmvm: snapshot requires a freshly instantiated VM (no calls yet)")
	}
	return &Snapshot{
		module:  vm.module,
		binSize: vm.binSize,
		funcs:   append([]compiledFunc(nil), vm.funcs...),
	}, nil
}

// NewVM clones a runnable instance from the snapshot under cfg,
// byte-identical in every virtual metric to New() + Instantiate() with the
// same cfg. The clone shares the snapshot's lowered code and writes its
// own post-init memory and globals; everything in cfg (cost tables, tier
// policy, page caps, attachments) is applied fresh here.
func (s *Snapshot) NewVM(cfg Config) (*VM, error) {
	if cfg.CallDepthLimit == 0 {
		cfg.CallDepthLimit = 10000
	}
	if cfg.MaxPages == 0 {
		cfg.MaxPages = wasm.MaxPages
	}
	vm := &VM{module: s.module, cfg: cfg, binSize: s.binSize}
	vm.tracer = cfg.Tracer
	vm.faults = cfg.Faults
	vm.inst = cfg.Instruments
	vm.profiling = cfg.Profile || cfg.Tracer != nil
	vm.funcs = append([]compiledFunc(nil), s.funcs...)
	if vm.profiling {
		vm.profs = make([]funcProf, len(vm.funcs))
	}
	vm.aotEnabled = !cfg.DisableAOTTier && cfg.StepLimit == 0
	vm.imports = make([]HostFunc, len(s.module.Imports))
	if err := vm.initImage(); err != nil {
		return nil, err
	}
	vm.applyInstantiateCharges()
	vm.inited = true
	return vm, nil
}

// Reset returns an instantiated VM to its post-init state in place:
// linear memory is rebuilt from the module (Mem.Min zero pages with only
// the data segments' extent committed) inside the same *Memory, globals are rewritten into the same
// backing slice, and every execution counter returns to the
// post-Instantiate state, including the re-applied virtual instantiation
// charge. Translated register and AOT bodies are retained — AOT closures
// captured this instance's globals slice and *Memory, which is exactly why
// the rewrite is in-place — but the tried flag clears, so the next run
// replays translation counters, fault checks, and trace events
// byte-identically to a cold instance while skipping the translation work.
func (vm *VM) Reset() error {
	if !vm.inited {
		return errors.New("wasmvm: Reset on an uninstantiated VM")
	}
	if vm.depth != 0 {
		return errors.New("wasmvm: Reset during an active call")
	}
	if err := vm.initImage(); err != nil {
		return err
	}
	for i := range vm.funcs {
		cf := &vm.funcs[i]
		cf.hotness = 0
		cf.tieredUp = false
		cf.aotTried = false
	}
	vm.stack = vm.stack[:0]
	vm.locals = vm.locals[:0]
	vm.cycles = 0
	vm.stats = Stats{}
	vm.tally = [256]uint64{}
	for i := range vm.profs {
		vm.profs[i] = funcProf{}
	}
	vm.lastFlush = Stats{}
	vm.childCycles = 0
	vm.aotBuilt = 0
	vm.aotBlockCount = 0
	vm.aotErr = nil
	vm.aotRb = nil
	vm.applyInstantiateCharges()
	return nil
}

// attach swaps the per-run attachments (tracer, profiling, fault plan,
// instruments) onto a pooled instance at checkout, mirroring what New()
// wires from a cold config.
func (vm *VM) attach(cfg Config) {
	vm.cfg.Tracer = cfg.Tracer
	vm.cfg.Profile = cfg.Profile
	vm.cfg.Faults = cfg.Faults
	vm.cfg.Instruments = cfg.Instruments
	vm.tracer = cfg.Tracer
	vm.faults = cfg.Faults
	vm.inst = cfg.Instruments
	vm.profiling = cfg.Profile || cfg.Tracer != nil
	if vm.profiling && vm.profs == nil {
		vm.profs = make([]funcProf, len(vm.funcs))
	}
}
