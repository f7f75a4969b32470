package wasmvm

// This file implements post-init instance snapshots — the Wizer-style
// pre-initialization answer to the paper's Finding 4: Wasm linear memory
// never shrinks, so at service scale the per-request cost that matters is
// instantiation, not compilation. A Snapshot captures a freshly
// instantiated VM's validated/lowered function bodies once, and NewVM
// clones runnable instances from it, skipping wasm.Validate and lowerFunc
// entirely. An instance is never returned to the post-init state: a pool
// clones a fresh one for every checkout (pool.go).
//
// The post-init image is the module itself: a module has no start
// function and nothing runs before Snapshot, so post-init linear memory is
// always Mem.Min zero pages with the data segments written over them, and
// every global holds its initializer. The snapshot therefore holds no
// memory image; Instantiate and NewVM both write the image from the
// module (initImage), which costs a fresh zeroed allocation plus the data
// segments instead of copying the whole heap.
//
// Determinism contract (the same one regalloc.go and aot.go established):
// snapshot restore is a *host-time* optimization only. Every clone
// re-applies the full virtual instantiation charge —
// InstantiateCost, DecodePerByte×binSize, and the tier policy's compile
// charge — exactly as Instantiate() computes it, so cycles, steps,
// tallies, profiles, and traces are byte-identical to a cold New() +
// Instantiate() under the same Config.
//
// Sharing rules, derived from what the dispatch tiers capture:
//
//   - code []lop and heights []int32 are immutable after New() — shared
//     across all clones, whatever their Config.
//   - regCode []rop bakes Config.OptCost into its costs, and AOT
//     superblock closures capture the owning VM's globals slice and
//     *Memory: both are built per instance on first use and never shared.

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
