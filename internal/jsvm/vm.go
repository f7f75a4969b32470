package jsvm

import (
	"errors"
	"fmt"
	"math"

	"wasmbench/internal/faultinject"
	"wasmbench/internal/obsv"
	"wasmbench/internal/telemetry"
)

// JSClass buckets evaluation steps for virtual-cycle accounting.
type JSClass uint8

// Cost classes.
const (
	JConst JSClass = iota
	JVarRead
	JVarWrite
	JArith
	JAdd
	JBitop
	JCmp
	JCall
	JCallNative
	JPropRead
	JPropWrite
	JElemRead
	JElemWrite
	JTARead
	JTAWrite
	JBranch
	JLoopBack
	JAlloc
	JStrOp
	JReturn
	NumJSClasses
)

var jsClassNames = [NumJSClasses]string{
	"const", "varread", "varwrite", "arith", "add", "bitop", "cmp",
	"call", "callnative", "propread", "propwrite", "elemread", "elemwrite",
	"taread", "tawrite", "branch", "loopback", "alloc", "strop", "return",
}

// String returns a short name for the class.
func (c JSClass) String() string {
	if int(c) < len(jsClassNames) {
		return jsClassNames[c]
	}
	return "unknown"
}

// JSCostTable holds per-class costs for one tier.
type JSCostTable [NumJSClasses]float64

// Scale returns a copy of the table with every cost multiplied by k.
func (t JSCostTable) Scale(k float64) JSCostTable {
	for i := range t {
		t[i] *= k
	}
	return t
}

// InterpCostTable is the reference interpreter-tier table: every operation
// pays boxed dynamic dispatch.
func InterpCostTable() JSCostTable {
	var t JSCostTable
	t[JConst] = 5
	t[JVarRead] = 6
	t[JVarWrite] = 7
	t[JArith] = 40
	t[JAdd] = 44
	t[JBitop] = 40
	t[JCmp] = 35
	t[JCall] = 180
	t[JCallNative] = 110
	t[JPropRead] = 95
	t[JPropWrite] = 105
	t[JElemRead] = 70
	t[JElemWrite] = 78
	t[JTARead] = 48
	t[JTAWrite] = 48
	t[JBranch] = 15
	t[JLoopBack] = 19
	t[JAlloc] = 190
	t[JStrOp] = 110
	t[JReturn] = 26
	return t
}

// JITCostTable is the reference optimizing-tier table: type-specialized
// code with inline caches.
func JITCostTable() JSCostTable {
	var t JSCostTable
	t[JConst] = 0.1
	t[JVarRead] = 0.12
	t[JVarWrite] = 0.15
	t[JArith] = 0.42
	t[JAdd] = 0.45
	t[JBitop] = 0.42
	t[JCmp] = 0.4
	t[JCall] = 3.5
	t[JCallNative] = 7
	t[JPropRead] = 2.2
	t[JPropWrite] = 2.6
	t[JElemRead] = 2.8
	t[JElemWrite] = 3.2
	t[JTARead] = 0.42
	t[JTAWrite] = 0.48
	t[JBranch] = 0.35
	t[JLoopBack] = 0.4
	t[JAlloc] = 13
	t[JStrOp] = 7
	t[JReturn] = 1
	return t
}

// Config parameterizes one engine instance.
type Config struct {
	InterpCost JSCostTable
	JITCost    JSCostTable
	// JITEnabled mirrors the paper's --no-opt experiments when false.
	JITEnabled bool
	// TierUpThreshold is the hotness (calls + loop iterations) before a
	// function is optimized.
	TierUpThreshold uint64
	// CompilePerNode is the one-time optimizing-compile charge per AST node.
	CompilePerNode float64
	// ParsePerByte is the source parse/bytecode charge at load (JS must be
	// parsed, unlike Wasm — §2.2.1).
	ParsePerByte float64
	// GCThreshold triggers collection after this many allocated bytes.
	GCThreshold uint64
	// GCMarkPerObject / GCSweepPerObject are collection charges.
	GCMarkPerObject  float64
	GCSweepPerObject float64
	StepLimit        uint64
	DepthLimit       int
	// EngineBaseline is the resident engine overhead added to the memory
	// metric (Chrome ≈ 880 KB, Firefox ≈ 510 KB in the paper's Tables 4/6).
	EngineBaseline uint64
	// Tracer receives typed execution events (tier-ups, GC cycles, call
	// enter/exit) stamped with the virtual-cycle clock; nil disables
	// tracing at the cost of one branch per hook.
	Tracer obsv.Tracer
	// Profile enables per-function virtual-cycle profiles (also implied by
	// a non-nil Tracer).
	Profile bool
	// Faults arms deterministic fault injection (heap-limit OOM, transient
	// allocation failure). nil — the default — is completely inert.
	Faults *faultinject.Plan
	// Instruments publishes live counters to a telemetry registry (JIT
	// compiles, GC cycles and freed bytes, steps/cycles flushed at
	// Run/CallFunction boundaries). nil (the default) is inert under the
	// same discipline as Tracer/Faults, and instruments never feed back
	// into the virtual clock.
	Instruments *telemetry.JSInstruments
}

// DefaultConfig returns a neutral engine configuration.
func DefaultConfig() Config {
	return Config{
		InterpCost:       InterpCostTable(),
		JITCost:          JITCostTable(),
		JITEnabled:       true,
		TierUpThreshold:  500,
		CompilePerNode:   220,
		ParsePerByte:     1.1,
		GCThreshold:      2 << 20,
		GCMarkPerObject:  8,
		GCSweepPerObject: 3,
		DepthLimit:       2000,
		EngineBaseline:   880 << 10,
	}
}

// OutputEvent is one print_* capture (same channel as the other VMs).
type OutputEvent struct {
	Kind string
	I    int64
	F    float64
	S    string
}

func (o OutputEvent) String() string {
	switch o.Kind {
	case "i":
		return fmt.Sprintf("i:%d", o.I)
	case "f":
		return fmt.Sprintf("f:%g", o.F)
	default:
		return "s:" + o.S
	}
}

// env is a function activation record with statically resolved slots.
type env struct {
	slots  []Value
	parent *env
	cost   *JSCostTable
	fn     *compiledFunc
	epoch  uint32
}

// VM is a JavaScript engine instance.
type VM struct {
	cfg    Config
	global *env
	gprog  *compiledFunc

	cycles float64
	steps  uint64
	depth  int

	objects      []*Object
	heapLive     uint64
	heapPeak     uint64
	external     uint64
	externalPeak uint64
	allocSince   uint64
	gcCount      int
	tierUps      int
	epoch        uint32

	envStack []*env
	temps    []*Object
	// argStack holds the arguments of in-flight calls: a call pushes its
	// arguments, passes the callee that window and pops back after.
	argStack []Value
	// stepLimit is Config.StepLimit, or no limit when that is 0.
	stepLimit uint64
	// envSlab and slotSlab are the chunks activation records and their
	// slots are carved from (see newEnv).
	envSlab  []env
	slotSlab []Value

	Output []OutputEvent

	pendingGlobals []hostBinding
	rngState       uint64
	// arith counts executed arithmetic operators by Table 12 group.
	arith ArithCounts
	// ctrlLabel carries the label of an in-flight labeled break/continue.
	ctrlLabel string

	// NowFn backs performance.now(); the browser layer installs the page
	// clock. Defaults to virtual cycles / 1e6.
	NowFn func() float64

	hostFuncs map[string]*Object

	tracer    obsv.Tracer
	profiling bool
	// faults is the armed fault plan (nil = inert; see Config.Faults).
	faults *faultinject.Plan
	// inst is the live-telemetry bundle (nil = inert); lastFlushSteps and
	// lastFlushCycles snapshot the bulk counters at the previous flush so
	// each engine entry publishes only its delta.
	inst            *telemetry.JSInstruments
	lastFlushSteps  uint64
	lastFlushCycles float64
	// allFuncs registers every compiled function (in compile order) for
	// profile export.
	allFuncs []*compiledFunc
	// childCycles accumulates callee cycles for the frame being profiled.
	childCycles float64
}

// Execution errors.
var (
	ErrJSStepLimit = errors.New("jsvm: step limit exceeded")
	ErrJSDepth     = errors.New("jsvm: maximum call stack size exceeded")
	// ErrJSOOM reports an injected heap-limit allocation failure — the
	// analogue of a mobile tab OOM kill (PAPER.md §memory).
	ErrJSOOM = errors.New("jsvm: out of memory (heap limit)")
)

// oomPanic is the sentinel carried by an injected allocation failure:
// alloc sites cannot return errors, so the failure unwinds as a panic and
// the Run/CallFunction entry points convert it to ErrJSOOM.
type oomPanic struct{}

// rangePanic carries a RangeError raised where no error can be returned
// (string conversion of a nested array past maxStringLength); the entry
// points convert it to the thrown error.
type rangePanic struct{ err error }

// jsThrow carries a thrown JavaScript value through Go error returns.
type jsThrow struct{ v Value }

func (t *jsThrow) Error() string { return "jsvm: uncaught " + t.v.ToString() }

// ThrownValue extracts the thrown value from an error, if it was a JS throw.
func ThrownValue(err error) (Value, bool) {
	var t *jsThrow
	if errors.As(err, &t) {
		return t.v, true
	}
	return Undefined, false
}

// New creates an engine with the host environment installed.
func New(cfg Config) *VM {
	if cfg.DepthLimit == 0 {
		cfg.DepthLimit = 2000
	}
	if cfg.GCThreshold == 0 {
		cfg.GCThreshold = 2 << 20
	}
	vm := &VM{cfg: cfg, stepLimit: cfg.StepLimit}
	if vm.stepLimit == 0 {
		vm.stepLimit = math.MaxUint64
	}
	vm.tracer = cfg.Tracer
	vm.profiling = cfg.Profile || cfg.Tracer != nil
	vm.NowFn = func() float64 { return vm.cycles / 1e6 }
	// Host bindings allocate before any recoverOOM-guarded entry point
	// exists; engine-boot allocations are not eligible for the js.heap-oom
	// injection point (and must not consume its sequence numbers).
	vm.installHost()
	vm.faults = cfg.Faults
	vm.inst = cfg.Instruments
	return vm
}

// Cycles returns accumulated virtual cycles.
func (vm *VM) Cycles() float64 { return vm.cycles }

// AddCycles charges extra cycles (context-switch modeling).
func (vm *VM) AddCycles(c float64) { vm.cycles += c }

// Steps returns the dynamic evaluation-step count.
func (vm *VM) Steps() uint64 { return vm.steps }

// Arithmetic-operator groups, the indexes of ArithCounts.
const (
	opADD = iota
	opMUL
	opDIV
	opREM
	opSHIFT
	opAND
	opOR
)

// ArithCounts are executed arithmetic-operation counts grouped as in the
// paper's Table 12 (Appendix D), in the order ADD, MUL, DIV, REM, SHIFT,
// AND, OR. ADD includes subtraction; OR includes XOR.
type ArithCounts [7]uint64

// Map returns the counts keyed by group name.
func (c ArithCounts) Map() map[string]uint64 {
	return map[string]uint64{
		"ADD": c[opADD], "MUL": c[opMUL], "DIV": c[opDIV],
		"REM": c[opREM], "SHIFT": c[opSHIFT],
		"AND": c[opAND], "OR": c[opOR],
	}
}

// ArithCounts returns the executed arithmetic-operation counts.
func (vm *VM) ArithCounts() ArithCounts { return vm.arith }

// GCCount returns how many collections ran.
func (vm *VM) GCCount() int { return vm.gcCount }

// TierUps returns how many function code objects were promoted to the
// optimizing JIT tier (0 whenever JITEnabled is false).
func (vm *VM) TierUps() int { return vm.tierUps }

// HeapBytes returns the current JS-heap bytes (excluding ArrayBuffer
// backing stores) plus the engine baseline.
func (vm *VM) HeapBytes() uint64 { return vm.cfg.EngineBaseline + vm.heapLive }

// PeakHeapBytes returns the peak JS-heap metric.
func (vm *VM) PeakHeapBytes() uint64 { return vm.cfg.EngineBaseline + vm.heapPeak }

// ExternalBytes returns current ArrayBuffer backing-store bytes.
func (vm *VM) ExternalBytes() uint64 { return vm.external }

// PeakExternalBytes returns the backing-store high-water mark.
func (vm *VM) PeakExternalBytes() uint64 { return vm.externalPeak }

// alloc registers a new object with the GC.
func (vm *VM) alloc(o *Object) *Object {
	sz := o.heapSize()
	if vm.faults != nil && vm.faults.HeapOOM("alloc", vm.heapLive+vm.external+sz) {
		vm.emitFault(faultinject.JSHeapOOM)
		panic(oomPanic{})
	}
	vm.objects = append(vm.objects, o)
	vm.heapLive += sz
	if vm.heapLive > vm.heapPeak {
		vm.heapPeak = vm.heapLive
	}
	vm.allocSince += sz
	vm.temps = append(vm.temps, o)
	return o
}

// allocBuffer attaches external backing-store bytes to an ArrayBuffer.
func (vm *VM) allocBuffer(o *Object, n int) {
	if vm.faults != nil && vm.faults.HeapOOM("buffer", vm.heapLive+vm.external+uint64(n)) {
		vm.emitFault(faultinject.JSHeapOOM)
		panic(oomPanic{})
	}
	o.Buf = make([]byte, n)
	vm.external += uint64(n)
	if vm.external > vm.externalPeak {
		vm.externalPeak = vm.external
	}
}

// NewPlainObject allocates an empty object.
func (vm *VM) NewPlainObject() *Object {
	return vm.alloc(&Object{Kind: ObjPlain, Props: map[string]Value{}})
}

// NewArray allocates a dense array.
func (vm *VM) NewArray(elems []Value) *Object {
	return vm.alloc(&Object{Kind: ObjArray, Elems: elems})
}

// NewNative wraps a Go function as a callable object.
func (vm *VM) NewNative(name string, fn func(vm *VM, this Value, args []Value) (Value, error)) *Object {
	return vm.alloc(&Object{Kind: ObjFunction, Fn: &FuncObj{Name: name, Native: fn}})
}

// newArrayBuffer allocates an ArrayBuffer of n bytes, or throws a
// RangeError past maxBufferBytes.
func (vm *VM) newArrayBuffer(n int) (*Object, error) {
	if n < 0 || n > maxBufferBytes {
		return nil, rangeError("Array buffer allocation failed")
	}
	buf := vm.alloc(&Object{Kind: ObjArrayBuffer})
	vm.allocBuffer(buf, n)
	return buf, nil
}

// newTypedArray allocates a typed array over a fresh buffer.
func (vm *VM) newTypedArray(kind TAKind, length int) (*Object, error) {
	if length < 0 || length > maxBufferBytes/kind.ElemSize() {
		return nil, rangeError("Invalid typed array length")
	}
	buf, err := vm.newArrayBuffer(length * kind.ElemSize())
	if err != nil {
		return nil, err
	}
	ta := vm.alloc(&Object{Kind: ObjTypedArray})
	ta.TA.Buf = buf
	ta.TA.Kind = kind
	ta.TA.Len = length
	return ta, nil
}

// Global returns a global binding (for tests and the harness).
func (vm *VM) Global(name string) (Value, bool) {
	if vm.gprog == nil {
		if o, ok := vm.hostFuncs[name]; ok {
			return ObjVal(o), true
		}
		return Undefined, false
	}
	idx, ok := vm.gprog.slotOf[name]
	if !ok {
		return Undefined, false
	}
	return vm.global.slots[idx], true
}

// SetGlobal installs a host binding visible to scripts.
func (vm *VM) SetGlobal(name string, v Value) {
	vm.pendingGlobals = append(vm.pendingGlobals, hostBinding{name, v})
}

type hostBinding struct {
	name string
	v    Value
}

// Run parses and executes a program. It may be called multiple times; each
// call compiles a fresh top-level scope that shares the host bindings.
func (vm *VM) Run(src string) (_ Value, err error) {
	defer vm.recoverOOM(&err, vm.mark())
	defer vm.flushInstruments()
	vm.cycles += vm.cfg.ParsePerByte * float64(len(src))
	body, err := jsParse(src)
	if err != nil {
		return Undefined, err
	}
	cf, err := compileProgram(vm, body)
	if err != nil {
		return Undefined, &syntaxError{err}
	}
	genv := &env{
		slots: make([]Value, cf.nSlots),
		cost:  &vm.cfg.InterpCost,
		fn:    cf,
	}
	// Install host bindings into their slots.
	for name, idx := range cf.slotOf {
		if o, ok := vm.hostFuncs[name]; ok {
			genv.slots[idx] = ObjVal(o)
		}
		for _, hb := range vm.pendingGlobals {
			if hb.name == name {
				genv.slots[idx] = hb.v
			}
		}
	}
	vm.gprog = cf
	vm.global = genv
	vm.envStack = append(vm.envStack, genv)
	defer func() { vm.envStack = vm.envStack[:len(vm.envStack)-1] }()
	if vm.profiling {
		defer vm.profExit(cf, vm.profEnter(cf))
	}
	var result Value
	for _, s := range cf.code {
		ctrl, v, err := s(vm, genv)
		if err != nil {
			return Undefined, err
		}
		vm.temps = vm.temps[:0]
		if ctrl == ctrlReturn {
			return v, nil
		}
		result = v
	}
	return result, nil
}

// profFrame is one open profiled activation.
type profFrame struct {
	start, savedChild float64
}

// profEnter opens one profiled activation of cf: it records the call and
// emits the CallEnter event; profExit closes it.
func (vm *VM) profEnter(cf *compiledFunc) profFrame {
	p := profFrame{start: vm.cycles, savedChild: vm.childCycles}
	vm.childCycles = 0
	cf.calls++
	if vm.tracer != nil {
		vm.tracer.Emit(obsv.Event{Kind: obsv.KindCallEnter, TS: p.start,
			Name: cf.name, Track: "js"})
	}
	return p
}

// profExit finalizes self/total cycle attribution and emits CallExit.
func (vm *VM) profExit(cf *compiledFunc, p profFrame) {
	total := vm.cycles - p.start
	cf.totalCycles += total
	cf.selfCycles += total - vm.childCycles
	vm.childCycles = p.savedChild + total
	if vm.tracer != nil {
		vm.tracer.Emit(obsv.Event{Kind: obsv.KindCallExit, TS: vm.cycles,
			Name: cf.name, Track: "js"})
	}
}

// Profile returns the per-function virtual-cycle profiles collected while
// profiling was enabled (Config.Profile or a non-nil Tracer); nil
// otherwise. Functions that never ran are omitted; order is compile order.
func (vm *VM) Profile() []obsv.FuncProfile {
	if !vm.profiling {
		return nil
	}
	out := make([]obsv.FuncProfile, 0, len(vm.allFuncs))
	for _, cf := range vm.allFuncs {
		if cf.calls == 0 {
			continue
		}
		fp := obsv.FuncProfile{
			Name:        cf.name,
			Track:       "js",
			Calls:       cf.calls,
			SelfCycles:  cf.selfCycles,
			TotalCycles: cf.totalCycles,
		}
		for c := JSClass(0); c < NumJSClasses; c++ {
			if n := cf.classCounts[c]; n != 0 {
				fp.Classes = append(fp.Classes, obsv.ClassCount{Class: c.String(), Count: n})
			}
		}
		out = append(out, fp)
	}
	return out
}

// CallFunction invokes a JS function value with arguments.
func (vm *VM) CallFunction(fn Value, args []Value) (_ Value, err error) {
	if fn.Kind != KindObject || fn.Obj.Kind != ObjFunction {
		return Undefined, fmt.Errorf("jsvm: not a function: %s", fn.ToString())
	}
	defer vm.recoverOOM(&err, vm.mark())
	defer vm.flushInstruments()
	return vm.callFuncObj(fn.Obj, Undefined, args)
}

// stackMark records the engine's stack heights at an entry point.
type stackMark struct {
	depth, envs, temps, args int
}

func (vm *VM) mark() stackMark {
	return stackMark{vm.depth, len(vm.envStack), len(vm.temps), len(vm.argStack)}
}

// recoverOOM converts an injected-OOM panic unwinding through an engine
// entry point into ErrJSOOM, wrapped with the injected fault that caused
// it, and a rangePanic into its error, and unwinds the stacks the
// abandoned activations left behind; every other panic is re-raised.
func (vm *VM) recoverOOM(err *error, m stackMark) {
	r := recover()
	switch p := r.(type) {
	case nil:
		return
	case oomPanic:
		*err = fmt.Errorf("%w: %w", ErrJSOOM,
			faultinject.Errorf(faultinject.JSHeapOOM, "allocation denied"))
	case rangePanic:
		*err = p.err
	default:
		panic(r)
	}
	vm.depth = m.depth
	vm.envStack = vm.envStack[:m.envs]
	vm.temps = vm.temps[:m.temps]
	vm.argStack = vm.argStack[:m.args]
}

// flushInstruments publishes the bulk counters accumulated since the last
// flush (steps, cycles, peak heap) to the instrument bundle. Called once
// per engine entry (Run/CallFunction) so evaluation itself never carries
// telemetry writes; rare events (tier-up, GC) publish at their own
// hook sites.
func (vm *VM) flushInstruments() {
	if vm.inst == nil {
		return
	}
	vm.inst.Runs.Inc()
	vm.inst.Steps.Add(float64(vm.steps - vm.lastFlushSteps))
	vm.inst.Cycles.Add(vm.cycles - vm.lastFlushCycles)
	vm.inst.PeakHeap.SetMax(float64(vm.PeakHeapBytes()))
	vm.lastFlushSteps = vm.steps
	vm.lastFlushCycles = vm.cycles
}

// emitFault records an injected-fault trace event at the current clock.
func (vm *VM) emitFault(pt faultinject.Point) {
	if vm.tracer != nil {
		vm.tracer.Emit(obsv.Event{Kind: obsv.KindFault, TS: vm.cycles,
			Name: string(pt), Track: "js"})
	}
}

func (vm *VM) callFuncObj(o *Object, this Value, args []Value) (Value, error) {
	f := o.Fn
	if f.Native != nil {
		return f.Native(vm, this, args)
	}
	if vm.depth >= vm.cfg.DepthLimit {
		return Undefined, ErrJSDepth
	}
	vm.depth++
	// Tiering: hotness per function code object.
	cf := f.Code
	cf.hot++
	costs := vm.tierCosts(cf)
	var v Value
	var err error
	if vm.profiling {
		v, err = vm.activateProfiled(f, costs, this, args)
	} else {
		v, err = vm.activate(f, costs, this, args)
	}
	vm.depth--
	return v, err
}

// activateProfiled runs one activation inside a profiler frame; the
// deferred close keeps the frame's attribution even when an injected OOM
// unwinds it.
func (vm *VM) activateProfiled(f *FuncObj, costs *JSCostTable, this Value, args []Value) (Value, error) {
	defer vm.profExit(f.Code, vm.profEnter(f.Code))
	return vm.activate(f, costs, this, args)
}

// activate binds a fresh activation record for f and runs its body.
func (vm *VM) activate(f *FuncObj, costs *JSCostTable, this Value, args []Value) (Value, error) {
	cf := f.Code
	fenv := vm.newEnv(cf.nSlots)
	fenv.parent, fenv.cost, fenv.fn = f.Env, costs, cf
	copy(fenv.slots[:cf.nParams], args)
	if cf.thisSlot >= 0 {
		fenv.slots[cf.thisSlot] = this
	}
	if cf.argsSlot >= 0 {
		fenv.slots[cf.argsSlot] = ObjVal(vm.NewArray(append([]Value(nil), args...)))
	}
	vm.envStack = append(vm.envStack, fenv)
	tempBase := len(vm.temps)
	v, err := runBody(vm, fenv, cf.code)
	vm.temps = vm.temps[:tempBase]
	vm.envStack = vm.envStack[:len(vm.envStack)-1]
	return v, err
}

// newEnv carves an activation record with n slots out of the VM's slabs.
// Records are never reused (closures may capture them), so slab memory is
// fresh and already zeroed.
func (vm *VM) newEnv(n int) *env {
	if len(vm.envSlab) == cap(vm.envSlab) {
		vm.envSlab = make([]env, 0, 64)
	}
	vm.envSlab = vm.envSlab[:len(vm.envSlab)+1]
	e := &vm.envSlab[len(vm.envSlab)-1]
	k := len(vm.slotSlab)
	if cap(vm.slotSlab)-k < n {
		vm.slotSlab, k = make([]Value, 0, max(512, n)), 0
	}
	vm.slotSlab = vm.slotSlab[:k+n]
	e.slots = vm.slotSlab[k : k+n : k+n]
	return e
}

// runBody runs a function body to its return value.
func runBody(vm *VM, e *env, code []stmtFn) (Value, error) {
	for _, s := range code {
		ctrl, v, err := s(vm, e)
		if err != nil {
			return Undefined, err
		}
		if ctrl == ctrlReturn {
			return v, nil
		}
	}
	return Undefined, nil
}

// tierCosts resolves the active tier table, applying tier-up policy.
func (vm *VM) tierCosts(cf *compiledFunc) *JSCostTable {
	if cf.tieredUp {
		return &vm.cfg.JITCost
	}
	if vm.cfg.JITEnabled && cf.hot >= vm.cfg.TierUpThreshold {
		vm.tierUp(cf)
		return &vm.cfg.JITCost
	}
	return &vm.cfg.InterpCost
}

// tierUp promotes cf to the optimizing tier, charging the compile and
// emitting the trace event.
func (vm *VM) tierUp(cf *compiledFunc) {
	cf.tieredUp = true
	vm.tierUps++
	if vm.inst != nil {
		vm.inst.JITCompiles.Inc()
	}
	vm.cycles += vm.cfg.CompilePerNode * float64(cf.nNodes)
	if vm.tracer != nil {
		vm.tracer.Emit(obsv.Event{Kind: obsv.KindTierUp, TS: vm.cycles,
			Name: cf.name, Track: "js", A: float64(cf.nNodes)})
	}
}

// bumpLoop is called on loop back-edges: contributes hotness and performs
// on-stack replacement of the cost table.
func (vm *VM) bumpLoop(e *env) {
	cf := e.fn
	cf.hot++
	if !cf.tieredUp && vm.cfg.JITEnabled && cf.hot >= vm.cfg.TierUpThreshold {
		vm.tierUp(cf)
	}
	if cf.tieredUp {
		e.cost = &vm.cfg.JITCost
	}
}

// step charges one evaluation step and enforces the step limit.
func (vm *VM) step(e *env, class JSClass) error {
	vm.cycles += e.cost[class]
	vm.steps++
	if vm.profiling {
		e.fn.classCounts[class]++
	}
	if vm.steps > vm.stepLimit {
		return ErrJSStepLimit
	}
	return nil
}

// maybeGC runs a collection at a statement-boundary safepoint.
func (vm *VM) maybeGC() {
	if vm.allocSince >= vm.cfg.GCThreshold {
		vm.gc()
	}
}
