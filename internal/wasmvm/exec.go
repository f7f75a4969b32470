package wasmvm

import (
	"errors"
	"fmt"
	"math"

	"wasmbench/internal/faultinject"
	"wasmbench/internal/obsv"
	"wasmbench/internal/wasm"
)

// Trap errors.
var (
	ErrDivByZero      = errors.New("wasmvm: integer divide by zero")
	ErrIntOverflow    = errors.New("wasmvm: integer overflow")
	ErrTruncInvalid   = errors.New("wasmvm: invalid conversion to integer")
	ErrUnreachable    = errors.New("wasmvm: unreachable executed")
	ErrCallDepth      = errors.New("wasmvm: call depth limit exceeded")
	ErrUnboundImport  = errors.New("wasmvm: unbound import called")
	ErrMemoryExceeded = errors.New("wasmvm: memory limit exceeded")
	ErrSignature      = errors.New("wasmvm: signature mismatch")
)

func (vm *VM) callIndex(idx uint32, args []uint64) ([]uint64, error) {
	nImp := uint32(len(vm.module.Imports))
	if idx < nImp {
		h := vm.imports[idx]
		if h == nil {
			imp := vm.module.Imports[idx]
			return nil, fmt.Errorf("%w: %s.%s", ErrUnboundImport, imp.Module, imp.Field)
		}
		return h(vm, args)
	}
	fi := idx - nImp
	if int(fi) >= len(vm.funcs) {
		return nil, fmt.Errorf("wasmvm: function index %d out of range", idx)
	}
	return vm.exec(int(fi), args)
}

// tierCosts returns the active cost table for a function, applying tier-up
// policy on entry.
func (vm *VM) tierCosts(cf *compiledFunc) *CostTable {
	if cf.tier == TierOptOnly {
		return &vm.cfg.OptCost
	}
	return &vm.cfg.BasicCost
}

// tierPending reports whether the next maybeTierUp call on cf will actually
// promote it. The dispatch loops use it so the per-tier cycle flush happens
// only at real transitions: flushing on every back-edge would regroup the
// float additions and break bit-identity across dispatch modes.
func (vm *VM) tierPending(cf *compiledFunc) bool {
	return vm.cfg.Mode == TierBoth && !cf.tieredUp && cf.hotness >= vm.cfg.TierUpThreshold
}

func (vm *VM) maybeTierUp(cf *compiledFunc) *CostTable {
	if vm.cfg.Mode == TierBoth && !cf.tieredUp && cf.hotness >= vm.cfg.TierUpThreshold {
		cf.tieredUp = true
		cf.tier = TierOptOnly
		vm.stats.TierUps++
		if vm.inst != nil {
			vm.inst.TierUps.Inc()
		}
		vm.cycles += vm.cfg.CompileOptPerInstr * float64(len(cf.code))
		if vm.tracer != nil {
			vm.tracer.Emit(obsv.Event{Kind: obsv.KindTierUp, TS: vm.cycles,
				Name: cf.name, Track: "wasm", A: float64(len(cf.code))})
		}
	}
	return vm.tierCosts(cf)
}

// addTierCycles attributes a span of instruction-charged cycles to the tier
// whose cost table was active. Spans are flushed only at tier transitions,
// call boundaries, and frame exit, so the float additions group identically
// in both dispatchers (stack and AOT).
func (vm *VM) addTierCycles(costs *CostTable, delta float64) {
	if costs == &vm.cfg.OptCost {
		vm.stats.OptCycles += delta
	} else {
		vm.stats.BasicCycles += delta
	}
}

// exec runs a defined function: argument checks, frame setup in the shared
// arenas, profiling hooks, and tier selection. The per-instruction work
// happens in runAOT (the optimizing tier, once its superblocks exist) or
// runStack (the basic tier, and the optimizing tier whenever the AOT tier
// is off or its translation bailed).
//
// A call allocates nothing: args alias the caller's frame or operand stack
// and are copied into the callee's locals, and the returned results alias
// vm.ret, valid until the next frame exit. The frame unwinds (depth,
// locals, stack) on every return, trap included.
func (vm *VM) exec(fi int, args []uint64) ([]uint64, error) {
	cf := &vm.funcs[fi]
	if len(args) != len(cf.typ.Params) {
		return nil, fmt.Errorf("wasmvm: func %s expects %d args, got %d", cf.name, len(cf.typ.Params), len(args))
	}
	vm.depth++
	if vm.depth > vm.cfg.CallDepthLimit {
		vm.depth--
		return nil, ErrCallDepth
	}

	if vm.faults != nil && vm.faults.Stall(cf.name) {
		vm.emitFault(faultinject.WasmStall, vm.cycles)
	}

	cf.hotness++
	costs := vm.maybeTierUp(cf)

	var start, savedChild float64
	if vm.profiling {
		start = vm.cycles
		savedChild = vm.childCycles
		vm.childCycles = 0
		vm.profs[fi].calls++
		if vm.tracer != nil {
			vm.tracer.Emit(obsv.Event{Kind: obsv.KindCallEnter, TS: start,
				Name: cf.name, Track: "wasm"})
		}
	}

	// Frame setup: the arguments become the first locals.
	localBase := len(vm.locals)
	vm.locals = append(vm.locals, args...)
	for i := len(args); i < cf.nLocals; i++ {
		vm.locals = append(vm.locals, 0)
	}
	stackBase := len(vm.stack)

	var res []uint64
	var err error
	if cf.tier == TierOptOnly && vm.aotBody(cf) != nil {
		res, err = vm.runAOT(fi, cf, localBase, stackBase, 0)
	} else {
		res, err = vm.runStack(fi, cf, localBase, stackBase, costs)
	}
	vm.locals = vm.locals[:localBase]
	vm.stack = vm.stack[:stackBase]

	if vm.profiling {
		prof := &vm.profs[fi]
		total := vm.cycles - start
		prof.totalCycles += total
		prof.selfCycles += total - vm.childCycles
		vm.childCycles = savedChild + total
		if vm.tracer != nil {
			vm.tracer.Emit(obsv.Event{Kind: obsv.KindCallExit, TS: vm.cycles,
				Name: cf.name, Track: "wasm"})
		}
	}
	vm.depth--
	return res, err
}

// runStack executes a frame with the classic operand-stack dispatch loop.
// It serves the basic tier, and the optimizing tier wherever the AOT tier
// is unavailable (disabled, step-limited, or translation bailed). It is
// also the reference implementation every other dispatcher must match.
func (vm *VM) runStack(fi int, cf *compiledFunc, localBase, stackBase int, costs *CostTable) ([]uint64, error) {
	locals := vm.locals[localBase : localBase+cf.nLocals]
	code := cf.code
	mem := vm.mem
	steps := vm.stats.Steps
	limit := vm.cfg.StepLimit
	if limit == 0 {
		limit = math.MaxUint64 // steps can never reach the sentinel
	}
	cycles := vm.cycles
	tierBase := cycles
	counts := &vm.tally
	// fclass attributes the instruction mix to this function when profiling
	// is on; with profiling off it points at a write-only scratch array so
	// the loop needs no per-instruction branch.
	fclass := &vm.scratchClass
	if vm.profiling {
		fclass = &vm.profs[fi].classCounts
	}

	var t *branchTarget // the taken branch's target, set before goto taken
	pc := 0
	for pc < len(code) {
		in := &code[pc]
		cycles += costs[in.class]
		counts[in.class]++
		fclass[in.class]++
		steps++
		if steps > limit {
			vm.stats.Steps = steps
			vm.cycles = cycles
			vm.addTierCycles(costs, cycles-tierBase)
			return nil, ErrStepLimit
		}
		switch in.op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpEnd, wasm.OpNop:
			// structural: no effect

		case wasm.OpUnreachable:
			vm.stats.Steps = steps
			vm.cycles = cycles
			vm.addTierCycles(costs, cycles-tierBase)
			return nil, ErrUnreachable

		case wasm.OpIf:
			c := vm.stack[len(vm.stack)-1]
			vm.stack = vm.stack[:len(vm.stack)-1]
			if uint32(c) == 0 {
				pc = vm.branch(stackBase, in.jump)
				continue
			}

		case wasm.OpElse:
			pc = vm.branch(stackBase, in.jump)
			continue

		case wasm.OpBr:
			t = &in.jump
			goto taken

		case wasm.OpBrIf:
			c := vm.stack[len(vm.stack)-1]
			vm.stack = vm.stack[:len(vm.stack)-1]
			if uint32(c) != 0 {
				t = &in.jump
				goto taken
			}

		case wasm.OpBrTable:
			c := uint32(vm.stack[len(vm.stack)-1])
			vm.stack = vm.stack[:len(vm.stack)-1]
			t = &in.targets[len(in.targets)-1]
			if int(c) < len(in.targets)-1 {
				t = &in.targets[c]
			}
			goto taken

		case wasm.OpReturn:
			pc = vm.branch(stackBase, in.jump)
			continue

		case wasm.OpCall:
			ct, _ := vm.module.FuncTypeOf(in.a)
			np := len(ct.Params)
			// The arguments stay on the stack, below the callee's frame,
			// until the call returns.
			callArgs := vm.stack[len(vm.stack)-np:]
			vm.stats.Steps = steps
			vm.cycles = cycles
			vm.addTierCycles(costs, cycles-tierBase)
			res, err := vm.callIndex(in.a, callArgs)
			steps = vm.stats.Steps
			cycles = vm.cycles
			tierBase = cycles
			if err != nil {
				return nil, err
			}
			vm.stack = append(vm.stack[:len(vm.stack)-np], res...)

		case wasm.OpDrop:
			vm.stack = vm.stack[:len(vm.stack)-1]

		case wasm.OpSelect:
			n := len(vm.stack)
			c, v2, v1 := vm.stack[n-1], vm.stack[n-2], vm.stack[n-3]
			vm.stack = vm.stack[:n-2]
			if uint32(c) != 0 {
				vm.stack[n-3] = v1
			} else {
				vm.stack[n-3] = v2
			}

		case wasm.OpLocalGet:
			vm.stack = append(vm.stack, locals[in.a])
		case wasm.OpLocalSet:
			locals[in.a] = vm.stack[len(vm.stack)-1]
			vm.stack = vm.stack[:len(vm.stack)-1]
		case wasm.OpLocalTee:
			locals[in.a] = vm.stack[len(vm.stack)-1]
		case wasm.OpGlobalGet:
			vm.stack = append(vm.stack, vm.globals[in.a])
		case wasm.OpGlobalSet:
			vm.globals[in.a] = vm.stack[len(vm.stack)-1]
			vm.stack = vm.stack[:len(vm.stack)-1]

		case wasm.OpI32Const, wasm.OpF32Const:
			vm.stack = append(vm.stack, uint64(uint32(in.val)))
		case wasm.OpI64Const, wasm.OpF64Const:
			vm.stack = append(vm.stack, uint64(in.val))

		case wasm.OpMemorySize:
			vm.stack = append(vm.stack, uint64(mem.Pages()))
		case wasm.OpMemoryGrow:
			d := uint32(vm.stack[len(vm.stack)-1])
			r := mem.Grow(d)
			vm.stack[len(vm.stack)-1] = uint64(uint32(r))
			cycles += vm.cfg.GrowBoundaryCost
			if vm.tracer != nil {
				vm.tracer.Emit(obsv.Event{Kind: obsv.KindMemGrow, TS: cycles,
					Name: cf.name, Track: "wasm", A: float64(d), B: float64(r)})
			}
			if vm.inst != nil {
				vm.inst.MemGrowOps.Inc()
				if r >= 0 {
					vm.inst.MemGrowPages.Add(float64(mem.Pages() - uint32(r)))
				}
			}

		default:
			var err error
			if isMemOp(in.op) {
				err = vm.execMem(in.op, in.b, mem)
			} else {
				err = vm.execNumeric(in.op)
			}
			if err != nil {
				vm.stats.Steps = steps
				vm.cycles = cycles
				vm.addTierCycles(costs, cycles-tierBase)
				return nil, err
			}
		}
		pc++
		continue

	taken:
		// A taken br, br_if, or br_table. A backward edge is a loop
		// iteration: it counts toward hotness, and the edge that crosses
		// the tier-up threshold promotes the function. Once promoted, the
		// frame moves to the AOT body at the branch target (OSR), which is
		// always a superblock leader; if translation bailed, the stack loop
		// carries on under the optimizing cost table.
		if t.pc <= int32(pc) {
			cf.hotness++
			if vm.tierPending(cf) {
				vm.cycles = cycles
				vm.addTierCycles(costs, cycles-tierBase)
				costs = vm.maybeTierUp(cf)
				cycles = vm.cycles
				tierBase = cycles
				if vm.aotBody(cf) != nil {
					pc = vm.branch(stackBase, *t)
					vm.stats.Steps = steps
					copy(vm.locals[localBase:localBase+cf.nLocals], locals)
					return vm.runAOT(fi, cf, localBase, stackBase, pc)
				}
			}
		}
		pc = vm.branch(stackBase, *t)
	}
	vm.stats.Steps = steps
	vm.cycles = cycles
	vm.addTierCycles(costs, cycles-tierBase)

	nr := len(cf.typ.Results)
	if len(vm.stack)-stackBase < nr {
		return nil, fmt.Errorf("wasmvm: func %s: result missing from stack", cf.name)
	}
	vm.ret = append(vm.ret[:0], vm.stack[len(vm.stack)-nr:]...)
	return vm.ret, nil
}

// emitFault records an injected-fault trace event at the given clock value
// (fault events exist only in fault-plan runs, so the zero-fault trace is
// untouched).
func (vm *VM) emitFault(pt faultinject.Point, ts float64) {
	if vm.tracer != nil {
		vm.tracer.Emit(obsv.Event{Kind: obsv.KindFault, TS: ts,
			Name: string(pt), Track: "wasm"})
	}
}

// branch applies a resolved branch target: truncate the operand stack to the
// target height, preserving the carried values, and return the new pc.
func (vm *VM) branch(stackBase int, t branchTarget) int {
	want := stackBase + int(t.unwind) + int(t.keep)
	if len(vm.stack) > want {
		// Move kept values down, then truncate.
		copy(vm.stack[stackBase+int(t.unwind):], vm.stack[len(vm.stack)-int(t.keep):])
		vm.stack = vm.stack[:want]
	}
	return int(t.pc)
}

func isMemOp(op wasm.Opcode) bool {
	return op >= wasm.OpI32Load && op <= wasm.OpI64Store32
}

// execMem executes a load or store opcode with the given static offset over
// the operand stack; value semantics live in memLoad/memStore (numeric.go).
func (vm *VM) execMem(op wasm.Opcode, offset uint32, mem *Memory) error {
	n := len(vm.stack)
	if op >= wasm.OpI32Store && op <= wasm.OpI64Store32 {
		v := vm.stack[n-1]
		addr := uint64(uint32(vm.stack[n-2])) + uint64(offset)
		vm.stack = vm.stack[:n-2]
		return memStore(mem, op, addr, v)
	}
	addr := uint64(uint32(vm.stack[n-1])) + uint64(offset)
	v, err := memLoad(mem, op, addr)
	if err != nil {
		return err
	}
	vm.stack[n-1] = v
	return nil
}

// execNumeric executes a pure numeric opcode over the operand stack; value
// semantics live in numUnary/numBinary (numeric.go).
func (vm *VM) execNumeric(op wasm.Opcode) error {
	st := vm.stack
	n := len(st)
	if isUnaryNumeric(op) {
		r, err := numUnary(op, st[n-1])
		if err != nil {
			return err
		}
		st[n-1] = r
		return nil
	}
	r, err := numBinary(op, st[n-2], st[n-1])
	if err != nil {
		return err
	}
	vm.stack = st[:n-1]
	vm.stack[n-2] = r
	return nil
}
