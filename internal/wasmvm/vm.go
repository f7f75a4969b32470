// Package wasmvm executes WebAssembly modules with a tiered virtual machine
// modeled on the two-layer designs the paper studies (§4.4.2): a basic tier
// (Chrome's LiftOff / Firefox's Baseline) and an optimizing tier (TurboFan /
// Ion), with hotness-driven tier-up.
//
// Besides producing real program results, the VM maintains a deterministic
// virtual-cycle clock driven by per-tier cost tables, dynamic instruction
// counters per cost class, and linear-memory usage statistics — the three
// metrics the study collects.
package wasmvm

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"wasmbench/internal/faultinject"
	"wasmbench/internal/obsv"
	"wasmbench/internal/telemetry"
	"wasmbench/internal/wasm"
)

// TierMode selects which compiler tiers are available, mirroring the
// paper's Chrome flags (Table 11): both tiers (default), basic only
// ("--liftoff --no-wasm-tier-up"), or optimizing only ("--no-liftoff").
type TierMode int

// Tier modes.
const (
	TierBoth TierMode = iota
	TierBasicOnly
	TierOptOnly
)

// String spells the mode as wasmrun's -mode flag does: both, basic, opt.
func (m TierMode) String() string {
	switch m {
	case TierBasicOnly:
		return "basic"
	case TierOptOnly:
		return "opt"
	}
	return "both"
}

// Config parameterizes the VM for one execution environment.
type Config struct {
	// BasicCost and OptCost are the per-class virtual-cycle cost tables of
	// the two tiers.
	BasicCost CostTable
	OptCost   CostTable
	// CompileBasicPerInstr and CompileOptPerInstr are one-time compile
	// charges per static instruction.
	CompileBasicPerInstr float64
	CompileOptPerInstr   float64
	// TierUpThreshold is the hotness (calls + loop back-edges) after which a
	// function is promoted to the optimizing tier in TierBoth mode.
	TierUpThreshold uint64
	Mode            TierMode
	// DecodePerByte is the instantiation charge for decoding/validating the
	// binary (Wasm needs no parsing — this is small, §2.2.2).
	DecodePerByte float64
	// InstantiateCost is a fixed module-instantiation charge (the mandatory
	// JS glue that creates the instance, §2.2.2).
	InstantiateCost float64
	// GrowBoundaryCost is the extra JS-boundary charge per memory.grow,
	// modeling Cheerp's resize-via-JS overhead (§4.2.2).
	GrowBoundaryCost float64
	// GrowGranularityPages rounds grow requests (Cheerp: 1 page = 64 KiB,
	// Emscripten: 256 pages = 16 MiB).
	GrowGranularityPages uint32
	// MaxPages caps linear memory; 0 means the spec maximum (64 Ki pages).
	MaxPages uint32
	// StepLimit aborts runaway programs after this many dynamic
	// instructions; 0 means no limit.
	StepLimit uint64
	// CallDepthLimit guards the host stack; 0 means 10000.
	CallDepthLimit int
	// DisableAOTTier turns off the closure-threaded AOT tier (regalloc.go,
	// aot.go, aotexec.go): optimizing-tier functions then run on the stack
	// loop under OptCost, exactly as they do when translation bails. The
	// AOT tier never changes virtual cycles, step counts, stats (apart
	// from the AOTCycles sub-split), profiles, or traces — only wall-clock
	// dispatch speed — so this is the stack reference for equivalence
	// tests and wasmrun -no-aot. The tier is also off
	// whenever StepLimit is set: a translated pair charges both of its
	// components before the budget check, which could overshoot the exact
	// trip instruction.
	DisableAOTTier bool
	// Tracer receives typed execution events (tier-ups, memory grows,
	// call enter/exit) stamped with the virtual-cycle clock. nil disables
	// tracing; hook sites cost one branch.
	Tracer obsv.Tracer
	// Profile enables per-function virtual-cycle profiles (also implied by
	// a non-nil Tracer).
	Profile bool
	// Faults arms deterministic fault injection (artificial stalls on
	// function entry). nil — the default — is completely inert: the
	// injection site is guarded by a single nil check and the execution
	// path is byte-identical to a build without fault injection.
	Faults *faultinject.Plan
	// Instruments publishes live counters to a telemetry registry: per-tier
	// cycles, steps, tier-ups, memory grows, and AOT translation totals.
	// nil (the default) is inert under the same discipline as
	// Tracer/Faults: rare events cost one branch, and bulk counters are
	// flushed only at exported Call boundaries, so the dispatch loop itself
	// never touches an instrument. Instruments never feed back into the
	// virtual clock — runs are byte-identical with or without them.
	Instruments *telemetry.VMInstruments
}

// DefaultConfig returns a neutral configuration with the baseline tier cost
// tables and Chrome-like tiering.
func DefaultConfig() Config {
	return Config{
		BasicCost:            BaselineBasicCost(),
		OptCost:              BaselineOptCost(),
		CompileBasicPerInstr: 6,
		CompileOptPerInstr:   60,
		TierUpThreshold:      1500,
		Mode:                 TierBoth,
		DecodePerByte:        0.6,
		InstantiateCost:      9000,
		GrowBoundaryCost:     350,
		GrowGranularityPages: 1,
		MaxPages:             wasm.MaxPages,
	}
}

// HostFunc is a native function bound to a function import. Arguments and
// results use the VM's raw 64-bit value representation. args aliases the
// caller's frame and is valid only until the function returns.
type HostFunc func(vm *VM, args []uint64) ([]uint64, error)

// branchTarget is a resolved branch destination.
type branchTarget struct {
	pc     int32 // destination program counter
	unwind int32 // absolute operand-stack height to unwind to (frame-relative)
	keep   uint8 // number of stack values carried to the target
}

// lop is a lowered instruction: the original opcode plus resolved control
// targets and a precomputed cost class.
type lop struct {
	op      wasm.Opcode
	class   CostClass
	keep    uint8
	a, b    uint32
	val     int64
	jump    branchTarget   // br, br_if (taken), if (false edge), else
	targets []branchTarget // br_table
}

// compiledFunc is the executable form of one defined function.
type compiledFunc struct {
	name     string
	typ      wasm.FuncType
	nLocals  int // params + declared locals
	code     []lop
	tier     TierMode // TierBasicOnly => basic, TierOptOnly => optimized
	hotness  uint64
	tieredUp bool

	// heights[pc] is the operand-stack height on entry to code[pc], derived
	// by abstract interpretation of stack effects during lowering; -1 marks
	// statically unreachable slots. The register translator reads these to
	// assign every stack slot a fixed frame register.
	heights []int32

	// Optimizing-tier forms, produced lazily by aotBody the first time the
	// function runs (or resumes via OSR) in the optimizing tier. regCode is
	// the register-form IR (translateReg): 1:1 with code, so branch
	// targets, OSR safe points, and pair partner slots need no remapping.
	// aotBlocks are its superblocks (translateAOT); aotEntry maps a
	// register-form pc to its superblock index (-1 = not a block leader),
	// so OSR can enter mid-function at any branch target.
	regCode   []rop
	maxStack  int32 // peak operand-stack height (register frame = locals + this)
	aotBlocks []aotBlock
	aotEntry  []int32
	aotTried  bool // translation attempted (aotBlocks may still be nil on bail)
}

// Stats aggregates execution counters.
type Stats struct {
	Steps   uint64
	Counts  [NumCostClasses]uint64
	TierUps int
	GrowOps int
	// BasicCycles and OptCycles split the cycles charged while executing
	// instructions by the tier cost table that was active at the charge
	// (memory.grow boundary charges included; one-time compile,
	// instantiate, and tier-up charges excluded). Together they show where
	// a tier-mode experiment's cycles land, not just how many tier-ups
	// fired.
	BasicCycles float64
	OptCycles   float64
	// AOTCycles is the sub-split of OptCycles charged while the AOT
	// superblock dispatcher was running (always <= OptCycles). It is the
	// one dispatcher-visible Stats field: a configuration where the stack
	// loop serves the optimizing tier (DisableAOTTier, a step limit, or a
	// translation bail) reports 0 here while charging the identical
	// OptCycles total, so cross-dispatcher equivalence checks compare
	// everything except this split.
	AOTCycles float64
}

// ArithOps returns the counts the paper's Table 12 reports: ADD, MUL, DIV,
// REM, SHIFT, AND, OR (OR includes XOR as in the paper's grouping).
func (s *Stats) ArithOps() map[string]uint64 {
	return map[string]uint64{
		"ADD":   s.Counts[CAddSub] + s.Counts[CFAddSub],
		"MUL":   s.Counts[CMul] + s.Counts[CFMul],
		"DIV":   s.Counts[CDiv] + s.Counts[CFDiv],
		"REM":   s.Counts[CRem],
		"SHIFT": s.Counts[CShift],
		"AND":   s.Counts[CAnd],
		"OR":    s.Counts[COr] + s.Counts[CXor],
	}
}

// funcProf accumulates one function's profile while profiling is enabled:
// call count, self/total virtual cycles, and the dynamic instruction mix
// by cost class. classCounts is padded to 256 entries so a uint8 CostClass
// index needs no bounds check in the dispatch loops; entries at and above
// NumCostClasses stay zero.
type funcProf struct {
	calls       uint64
	totalCycles float64
	selfCycles  float64
	classCounts [256]uint64
}

// VM is an instantiated module ready to execute exported functions.
type VM struct {
	module  *wasm.Module
	cfg     Config
	funcs   []compiledFunc
	globals []uint64
	mem     *Memory
	imports []HostFunc
	stack   []uint64
	locals  []uint64
	ret     []uint64 // results of the last frame exit (see exec)
	depth   int
	cycles  float64
	stats   Stats
	inited  bool
	binSize int

	tracer    obsv.Tracer
	profiling bool
	profs     []funcProf
	// inst is the live-telemetry bundle (nil = inert); lastFlush is the
	// Stats snapshot at the previous instrument flush, so each exported
	// Call publishes only its delta.
	inst      *telemetry.VMInstruments
	lastFlush Stats
	// faults is the armed fault plan (nil = inert; see Config.Faults).
	faults *faultinject.Plan
	// childCycles accumulates callee cycles for the frame currently being
	// profiled, so selfCycles = total − children.
	childCycles float64
	// aotEnabled gates the closure-threaded AOT tier (off under
	// DisableAOTTier or a step limit); aotBuilt/aotBlockCount count
	// AOT-compiled functions and the superblocks built for them.
	aotEnabled    bool
	aotBuilt      int
	aotBlockCount int
	// aotErr and aotRb carry a trap out of an AOT closure chain to the
	// superblock driver, which rolls back the pre-counted suffix before
	// flushing (see aotexec.go).
	aotErr error
	aotRb  *aotRollback
	// tally is the live per-class instruction counter behind Stats.Counts,
	// padded to 256 entries so a uint8 CostClass index needs no bounds
	// check in the dispatch loops; Stats() folds it back down.
	tally [256]uint64
	// scratchClass absorbs per-class attribution writes when profiling is
	// off, so the dispatch loop increments unconditionally instead of
	// branching on every instruction. Never read.
	scratchClass [256]uint64
	// pool is the InstancePool that owns this instance, if any; Put uses it
	// to reject instances it does not track (e.g. cold fallbacks).
	pool *InstancePool
}

// ErrStepLimit reports that the configured dynamic instruction budget was
// exhausted.
var ErrStepLimit = errors.New("wasmvm: step limit exceeded")

// New validates and lowers the module. binarySize is the encoded module
// size in bytes, used for the instantiation decode charge (pass 0 if the
// module was built in memory and size is not meaningful).
func New(m *wasm.Module, binarySize int, cfg Config) (*VM, error) {
	if err := wasm.Validate(m); err != nil {
		return nil, err
	}
	if cfg.CallDepthLimit == 0 {
		cfg.CallDepthLimit = 10000
	}
	if cfg.MaxPages == 0 {
		cfg.MaxPages = wasm.MaxPages
	}
	vm := &VM{module: m, cfg: cfg, binSize: binarySize}
	vm.tracer = cfg.Tracer
	vm.faults = cfg.Faults
	vm.inst = cfg.Instruments
	vm.profiling = cfg.Profile || cfg.Tracer != nil
	vm.funcs = make([]compiledFunc, len(m.Funcs))
	for i := range m.Funcs {
		cf, err := lowerFunc(m, &m.Funcs[i])
		if err != nil {
			return nil, fmt.Errorf("wasmvm: func %d: %w", i, err)
		}
		if cf.name == "" {
			cf.name = fmt.Sprintf("func%d", i)
		}
		vm.funcs[i] = cf
	}
	if vm.profiling {
		vm.profs = make([]funcProf, len(vm.funcs))
	}
	vm.aotEnabled = !cfg.DisableAOTTier && cfg.StepLimit == 0
	vm.imports = make([]HostFunc, len(m.Imports))
	return vm, nil
}

// AOTTranslated returns how many functions have been AOT-compiled into
// superblock form so far; 0 when the AOT tier is disabled (explicitly or
// by a step limit) or when nothing has run in the optimizing tier yet.
func (vm *VM) AOTTranslated() int { return vm.aotBuilt }

// AOTSuperblocks returns the total number of superblocks built across all
// AOT-compiled functions.
func (vm *VM) AOTSuperblocks() int { return vm.aotBlockCount }

// Profile returns the per-function virtual-cycle profiles collected while
// profiling was enabled (Config.Profile or a non-nil Tracer); nil
// otherwise. Functions that never ran are omitted.
func (vm *VM) Profile() []obsv.FuncProfile {
	if !vm.profiling {
		return nil
	}
	out := make([]obsv.FuncProfile, 0, len(vm.funcs))
	for i := range vm.funcs {
		p := &vm.profs[i]
		if p.calls == 0 {
			continue
		}
		fp := obsv.FuncProfile{
			Name:        vm.funcs[i].name,
			Track:       "wasm",
			Calls:       p.calls,
			SelfCycles:  p.selfCycles,
			TotalCycles: p.totalCycles,
		}
		for c := CostClass(0); c < NumCostClasses; c++ {
			if n := p.classCounts[c]; n != 0 {
				fp.Classes = append(fp.Classes, obsv.ClassCount{Class: c.String(), Count: n})
			}
		}
		out = append(out, fp)
	}
	return out
}

// BindImport installs a host function of signature typ for the import
// module.field. An import declared with another signature stays unbound
// (calling it fails with ErrUnboundImport): fn reads its arguments and
// writes its results as typ says.
func (vm *VM) BindImport(module, field string, typ wasm.FuncType, fn HostFunc) error {
	for i, imp := range vm.module.Imports {
		if imp.Module == module && imp.Field == field {
			if decl := vm.module.Types[imp.Type]; !decl.Equal(typ) {
				return fmt.Errorf("%w: import %s.%s is %v, host function is %v",
					ErrSignature, module, field, decl, typ)
			}
			vm.imports[i] = fn
			return nil
		}
	}
	return fmt.Errorf("wasmvm: no import %s.%s", module, field)
}

// Instantiate allocates memory and globals, copies data segments, applies
// the tier policy's up-front compilation charges, and charges startup costs.
func (vm *VM) Instantiate() error {
	if err := vm.initImage(); err != nil {
		return err
	}
	vm.applyInstantiateCharges()
	vm.inited = true
	return nil
}

// initImage writes the module's post-init state: Mem.Min zero pages with
// the data segments copied over them (only their extent is committed),
// and every global at its initial value. A module has no start function,
// so this is the whole post-init image; Instantiate, snapshot clones and
// Reset all build it here. An existing *Memory and globals slice are rewritten in place,
// because retained AOT closures captured them.
func (vm *VM) initImage() error {
	m := vm.module
	if m.Mem != nil {
		maxP := vm.cfg.MaxPages
		if m.Mem.HasMax && m.Mem.Max < maxP {
			maxP = m.Mem.Max
		}
		if m.Mem.Min > maxP {
			return fmt.Errorf("%w: %d initial pages, cap %d", ErrMemoryExceeded, m.Mem.Min, maxP)
		}
		// Commit only the data segments' extent; the rest reads as zero.
		extent := uint64(0)
		for _, d := range m.Data {
			end := uint64(d.Offset) + uint64(len(d.Bytes))
			if end > uint64(m.Mem.Min)*PageSize {
				return fmt.Errorf("wasmvm: data segment: %w", &TrapOOB{Addr: uint64(d.Offset), Size: len(d.Bytes)})
			}
			extent = max(extent, end)
		}
		if vm.mem == nil {
			vm.mem = NewMemory(m.Mem.Min, maxP, vm.cfg.GrowGranularityPages)
		}
		vm.mem.reset(m.Mem.Min, int(extent))
		for _, d := range m.Data {
			copy(vm.mem.data[d.Offset:], d.Bytes)
		}
	}
	if vm.globals == nil {
		vm.globals = make([]uint64, len(m.Globals))
	}
	for i, g := range m.Globals {
		if g.Type == wasm.I32 {
			vm.globals[i] = uint64(uint32(int32(g.Init)))
		} else {
			vm.globals[i] = uint64(g.Init)
		}
	}
	return nil
}

// applyInstantiateCharges charges the virtual instantiation costs (decode,
// instance creation, up-front tier compilation) and sets each function's
// starting tier per the tier policy. Shared by Instantiate, snapshot
// clones, and Reset so all three produce the identical virtual state.
func (vm *VM) applyInstantiateCharges() {
	vm.cycles += vm.cfg.InstantiateCost + vm.cfg.DecodePerByte*float64(vm.binSize)
	total := 0
	for i := range vm.funcs {
		total += len(vm.funcs[i].code)
	}
	switch vm.cfg.Mode {
	case TierBoth, TierBasicOnly:
		vm.cycles += vm.cfg.CompileBasicPerInstr * float64(total)
		for i := range vm.funcs {
			vm.funcs[i].tier = TierBasicOnly
		}
	case TierOptOnly:
		vm.cycles += vm.cfg.CompileOptPerInstr * float64(total)
		for i := range vm.funcs {
			vm.funcs[i].tier = TierOptOnly
		}
	}
}

// Call invokes an exported function by name with raw 64-bit arguments.
func (vm *VM) Call(name string, args ...uint64) ([]uint64, error) {
	if !vm.inited {
		return nil, errors.New("wasmvm: module not instantiated")
	}
	idx, ok := vm.module.ExportedFunc(name)
	if !ok {
		return nil, fmt.Errorf("wasmvm: no exported function %q", name)
	}
	return vm.CallIndex(idx, args...)
}

// CallIndex invokes a function by combined index space position.
func (vm *VM) CallIndex(idx uint32, args ...uint64) ([]uint64, error) {
	if !vm.inited {
		return nil, errors.New("wasmvm: module not instantiated")
	}
	if ft, err := vm.module.FuncTypeOf(idx); err != nil {
		return nil, err
	} else if len(args) != len(ft.Params) {
		return nil, fmt.Errorf("%w: function %d takes %d arguments, got %d",
			ErrSignature, idx, len(ft.Params), len(args))
	}
	res, err := vm.callIndex(idx, args)
	vm.flushInstruments()
	if res != nil {
		res = append([]uint64(nil), res...) // detach from vm.ret
	}
	return res, err
}

// flushInstruments publishes the bulk counters accumulated since the last
// flush (steps, per-tier cycles, peak memory) to the instrument bundle.
// Called once per exported call so the dispatch loops never carry
// telemetry writes; rare events (tier-up, grow, translation) publish at
// their own hook sites instead.
func (vm *VM) flushInstruments() {
	if vm.inst == nil {
		return
	}
	s := vm.Stats()
	vm.inst.Runs.Inc()
	vm.inst.Steps.Add(float64(s.Steps - vm.lastFlush.Steps))
	vm.inst.BasicCycles.Add(s.BasicCycles - vm.lastFlush.BasicCycles)
	vm.inst.OptCycles.Add(s.OptCycles - vm.lastFlush.OptCycles)
	vm.inst.AOTCycles.Add(s.AOTCycles - vm.lastFlush.AOTCycles)
	vm.inst.PeakMemBytes.SetMax(float64(vm.PeakMemoryBytes()))
	vm.lastFlush = s
}

// Cycles returns the accumulated virtual-cycle count.
func (vm *VM) Cycles() float64 { return vm.cycles }

// AddCycles charges extra cycles (used by the host boundary model).
func (vm *VM) AddCycles(c float64) { vm.cycles += c }

// Stats returns a copy of the execution counters.
func (vm *VM) Stats() Stats {
	s := vm.stats
	copy(s.Counts[:], vm.tally[:NumCostClasses])
	if vm.mem != nil {
		s.GrowOps = vm.mem.GrowCount()
	}
	return s
}

// Memory returns the linear memory instance (nil if the module has none).
func (vm *VM) Memory() *Memory { return vm.mem }

// PeakMemoryBytes returns the linear-memory high-water mark in bytes.
func (vm *VM) PeakMemoryBytes() uint64 {
	if vm.mem == nil {
		return 0
	}
	return uint64(vm.mem.PeakPages()) * PageSize
}

// ReadGlobal returns the raw value of global i.
func (vm *VM) ReadGlobal(i int) (uint64, error) {
	if i < 0 || i >= len(vm.globals) {
		return 0, fmt.Errorf("wasmvm: global %d out of range", i)
	}
	return vm.globals[i], nil
}

// lowerFunc resolves structured control flow to branch targets and
// pre-classifies every instruction. It runs two passes: the first matches
// every block/loop/if with its else/end, the second replays the control
// stack with operand heights and resolves each branch immediately.
func lowerFunc(m *wasm.Module, f *wasm.Function) (compiledFunc, error) {
	ft := m.Types[f.Type]
	cf := compiledFunc{
		name:    f.Name,
		typ:     ft,
		nLocals: len(ft.Params) + len(f.Locals),
		code:    make([]lop, len(f.Body)),
		heights: make([]int32, len(f.Body)),
	}

	// Pass 1: match structural markers. matchEnd[pc] is the pc of the
	// matching end for a block/loop/if at pc; matchElse[pc] is the matching
	// else (or -1).
	matchEnd := make(map[int]int)
	matchElse := make(map[int]int)
	var open []int
	for pc := range f.Body {
		switch f.Body[pc].Op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			open = append(open, pc)
		case wasm.OpElse:
			if len(open) == 0 {
				return cf, fmt.Errorf("else without if at pc %d", pc)
			}
			matchElse[open[len(open)-1]] = pc
		case wasm.OpEnd:
			if len(open) == 0 {
				// Function-closing end: must be the last instruction.
				if pc != len(f.Body)-1 {
					return cf, fmt.Errorf("unbalanced end at pc %d", pc)
				}
				continue
			}
			matchEnd[open[len(open)-1]] = pc
			open = open[:len(open)-1]
		}
	}
	if len(open) != 0 {
		return cf, fmt.Errorf("%d unclosed blocks", len(open))
	}

	// Pass 2: replay with heights and resolve branches.
	type frame struct {
		op     wasm.Opcode
		bt     int32
		height int
		pc     int // pc of the block/loop/if instruction; -1 for the function frame
	}
	fnBT := int32(wasm.BlockNone)
	if len(ft.Results) == 1 {
		fnBT = int32(ft.Results[0])
	}
	frames := []frame{{op: wasm.OpEnd, bt: fnBT, height: 0, pc: -1}}
	height := 0
	unreachable := false

	// resolve computes the branch target for label depth d.
	resolve := func(d int) (branchTarget, error) {
		if d >= len(frames) {
			return branchTarget{}, fmt.Errorf("branch depth %d out of range", d)
		}
		fr := frames[len(frames)-1-d]
		if fr.op == wasm.OpLoop {
			return branchTarget{pc: int32(fr.pc + 1), unwind: int32(fr.height), keep: 0}, nil
		}
		keep := uint8(0)
		if fr.bt != wasm.BlockNone {
			keep = 1
		}
		endPC := len(f.Body) // function frame: jump past the body
		if fr.pc >= 0 {
			endPC = matchEnd[fr.pc] + 1
		}
		return branchTarget{pc: int32(endPC), unwind: int32(fr.height), keep: keep}, nil
	}

	for pc := range f.Body {
		in := &f.Body[pc]
		l := &cf.code[pc]
		l.op = in.Op
		l.class = Classify(in.Op)
		l.a, l.b, l.val = in.A, in.B, in.Val

		// Entry height for the register translator; -1 = statically dead
		// (never executed: flow branched away and only rejoins at labels).
		if unreachable {
			cf.heights[pc] = -1
		} else {
			cf.heights[pc] = int32(height)
		}

		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			if in.Op == wasm.OpIf && !unreachable {
				height--
			}
			frames = append(frames, frame{op: in.Op, bt: in.BlockType, height: height, pc: pc})
			if in.Op == wasm.OpIf {
				// False edge: to after the else marker, or past end.
				if ePC, ok := matchElse[pc]; ok {
					l.jump = branchTarget{pc: int32(ePC + 1), unwind: int32(height), keep: 0}
				} else {
					l.jump = branchTarget{pc: int32(matchEnd[pc] + 1), unwind: int32(height), keep: 0}
				}
			}
			continue
		case wasm.OpElse:
			fr := frames[len(frames)-1]
			height = fr.height
			unreachable = false
			// Fallthrough from the then arm jumps past the end, carrying
			// the block result.
			keep := uint8(0)
			if fr.bt != wasm.BlockNone {
				keep = 1
			}
			l.jump = branchTarget{pc: int32(matchEnd[fr.pc] + 1), unwind: int32(fr.height), keep: keep}
			continue
		case wasm.OpEnd:
			if len(frames) == 1 {
				continue // function end
			}
			fr := frames[len(frames)-1]
			frames = frames[:len(frames)-1]
			height = fr.height
			if fr.bt != wasm.BlockNone {
				height++
			}
			unreachable = false
			continue
		case wasm.OpBr, wasm.OpBrIf:
			t, err := resolve(int(in.A))
			if err != nil {
				return cf, fmt.Errorf("pc %d: %w", pc, err)
			}
			l.jump = t
			if !unreachable {
				if in.Op == wasm.OpBrIf {
					height--
				} else {
					unreachable = true
				}
			}
			continue
		case wasm.OpBrTable:
			l.targets = make([]branchTarget, 0, len(in.Targets)+1)
			for _, lbl := range in.Targets {
				t, err := resolve(int(lbl))
				if err != nil {
					return cf, fmt.Errorf("pc %d: %w", pc, err)
				}
				l.targets = append(l.targets, t)
			}
			t, err := resolve(int(in.A))
			if err != nil {
				return cf, fmt.Errorf("pc %d: %w", pc, err)
			}
			l.targets = append(l.targets, t) // default is last
			unreachable = true
			continue
		case wasm.OpReturn:
			keep := uint8(0)
			if len(ft.Results) == 1 {
				keep = 1
			}
			l.jump = branchTarget{pc: int32(len(f.Body)), unwind: 0, keep: keep}
			unreachable = true
			continue
		case wasm.OpUnreachable:
			unreachable = true
			continue
		}
		if unreachable {
			continue
		}
		pops, pushes, err := stackEffect(m, ft, f, in)
		if err != nil {
			return cf, fmt.Errorf("pc %d: %w", pc, err)
		}
		height += pushes - pops
	}
	return cf, nil
}

// stackEffect returns the operand-stack pops and pushes of a plain (already
// control-handled) instruction.
func stackEffect(m *wasm.Module, ft wasm.FuncType, f *wasm.Function, in *wasm.Instr) (pops, pushes int, err error) {
	op := in.Op
	switch {
	case op >= wasm.OpI32Const && op <= wasm.OpF64Const:
		return 0, 1, nil
	case op == wasm.OpLocalGet || op == wasm.OpGlobalGet || op == wasm.OpMemorySize:
		return 0, 1, nil
	case op == wasm.OpLocalSet || op == wasm.OpGlobalSet || op == wasm.OpDrop:
		return 1, 0, nil
	case op == wasm.OpLocalTee || op == wasm.OpMemoryGrow:
		return 1, 1, nil
	case op >= wasm.OpI32Load && op <= wasm.OpI64Load32U:
		return 1, 1, nil
	case op >= wasm.OpI32Store && op <= wasm.OpI64Store32:
		return 2, 0, nil
	case op == wasm.OpSelect:
		return 3, 1, nil
	case op == wasm.OpCall:
		ct, err := m.FuncTypeOf(in.A)
		if err != nil {
			return 0, 0, err
		}
		return len(ct.Params), len(ct.Results), nil
	case op == wasm.OpNop:
		return 0, 0, nil
	case isUnaryNumeric(op):
		return 1, 1, nil
	default:
		return 2, 1, nil // binary numeric
	}
}

func isUnaryNumeric(op wasm.Opcode) bool {
	switch {
	case op == wasm.OpI32Eqz || op == wasm.OpI64Eqz:
		return true
	case op >= wasm.OpI32Clz && op <= wasm.OpI32Popcnt:
		return true
	case op >= wasm.OpI64Clz && op <= wasm.OpI64Popcnt:
		return true
	case op >= wasm.OpF32Abs && op <= wasm.OpF32Sqrt:
		return true
	case op >= wasm.OpF64Abs && op <= wasm.OpF64Sqrt:
		return true
	case op >= wasm.OpI32WrapI64 && op <= wasm.OpF64ReinterpretI64:
		return true
	}
	return false
}

// Raw value packing helpers shared with callers.

// I32 packs an int32 into the raw representation.
func I32(v int32) uint64 { return uint64(uint32(v)) }

// I64 packs an int64 into the raw representation.
func I64(v int64) uint64 { return uint64(v) }

// F32 packs a float32 into the raw representation.
func F32(v float32) uint64 { return uint64(math.Float32bits(v)) }

// F64 packs a float64 into the raw representation.
func F64(v float64) uint64 { return math.Float64bits(v) }

// AsI32 unpacks a raw value as int32.
func AsI32(v uint64) int32 { return int32(uint32(v)) }

// AsI64 unpacks a raw value as int64.
func AsI64(v uint64) int64 { return int64(v) }

// AsF32 unpacks a raw value as float32.
func AsF32(v uint64) float32 { return math.Float32frombits(uint32(v)) }

// AsF64 unpacks a raw value as float64.
func AsF64(v uint64) float64 { return math.Float64frombits(v) }

// popcnt64 is a tiny alias so the exec switch reads uniformly.
func popcnt64(v uint64) uint64 { return uint64(bits.OnesCount64(v)) }
