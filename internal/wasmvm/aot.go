package wasmvm

import (
	"wasmbench/internal/obsv"
)

// This file implements the optimizing tier's dispatcher form: a
// translator that compiles a function's register-form body (regalloc.go)
// into "superblocks" — basic blocks whose instructions are pre-bound Go
// closures chained by direct captured references — so execution pays one
// indirect call per block edge instead of one switch iteration per
// instruction (runAOT, aotexec.go). Every function in the optimizing tier
// runs here: from its first call under TierOptOnly, and from its tier-up
// (by call or by loop back-edge OSR) under TierBoth.
//
// The translation starts from the register form, so it inherits the 1:1
// slot→register mapping and the pair forms. The body is partitioned at
// branch targets: every target, every fall-through after a conditional
// branch or call, and pc 0 starts a block. Within a block each op becomes
// a closure that captures its operand registers, constants, and cost,
// performs its effect, and tail-calls the next closure; the block
// terminator returns the successor block index (branch targets are
// resolved to block indexes at translation time, so control flow is
// block→block integer edges).
//
// Determinism contract: cycles (including float-addition order), steps,
// per-class tallies, profiles, and traces must be byte-identical to the
// stack dispatcher under the optimizing cost table. Cycles are added in
// instruction order inside the closures. Integer accounting (steps, class
// tallies) is commutative, so the driver hoists it: each block's totals
// are precomputed and added once at block entry. Two cases need care:
//
//   - Traps. A trapping closure fires mid-block after the whole block was
//     pre-counted, so it hands the driver a rollback — the aggregate of
//     every op strictly after it in the block — to subtract before the
//     flush. The trapping op's own charges stay, matching the
//     charge-before-evaluate order of runStack.
//   - Calls. A call must flush and reload the VM-global counters around
//     the callee, so rCall terminates its block and the driver performs
//     the call between blocks.
//
// Conservative-bail discipline: anything unexpected (dead slots reached,
// unknown kinds) bails the whole translation and the stack loop serves
// the function under the optimizing cost table instead.

// aotFn is one compiled closure. It threads the running cycle count and
// returns either the next block index (>= 0) or a sentinel.
type aotFn func(vm *VM, fr []uint64, cy float64) (float64, int32)

// Driver sentinels returned in place of a block index.
const (
	aotRet      int32 = -1 // function end: copy results, return
	aotTrap     int32 = -2 // trap: vm.aotErr/vm.aotRb are set
	aotCallMark int32 = -3 // block ended in a call: see aotBlock.call
)

// aotClassDelta is one cost class's contribution to a block aggregate or a
// trap rollback.
type aotClassDelta struct {
	class CostClass
	n     uint64
}

// aotCall describes the call terminating a block, executed by the driver
// between blocks (flush, callIndex, reload).
type aotCall struct {
	idx  uint32 // combined-index-space function index
	np   int    // parameter count
	base int32  // argument base register; results land at the same base
	next int32  // block index after the call (or aotRet)
}

// aotRollback is the pre-counted suffix a trapping closure hands back for
// the driver to subtract.
type aotRollback struct {
	steps   uint64
	classes []aotClassDelta
}

// aotNoRollback is the shared empty rollback for trap sites with nothing
// after them in the block.
var aotNoRollback aotRollback

// aotBlock is one superblock: the head of the closure chain plus the
// hoisted integer accounting for the whole block.
type aotBlock struct {
	head    aotFn
	steps   uint64
	classes []aotClassDelta
	call    *aotCall // non-nil iff the block terminator is a call
}

// aotBody returns cf's superblock form, translating it (register form
// first, then superblocks) on first use. A nil result means the AOT tier is
// off or translation bailed: the stack loop serves the function under the
// optimizing cost table — only dispatch speed is affected, never metrics.
// Translation charges no virtual cycles: tier-up (or TierOptOnly
// instantiation) already charged the modeled optimizing compile, so this
// host-side work is invisible to the virtual clock.
func (vm *VM) aotBody(cf *compiledFunc) []aotBlock {
	if !vm.aotEnabled {
		return nil
	}
	if !cf.aotTried {
		cf.aotTried = true
		// Bodies retained across a snapshot Reset (superblocks) or seeded
		// from a pool's warm-body store (register form) skip
		// re-translation — retained closures captured this instance's
		// globals and memory, which Reset restored in place — but the
		// counters and the compile trace event below replay at the
		// identical virtual timestamp a cold instance would emit them.
		if cf.regCode == nil {
			cf.regCode = translateReg(vm.module, cf, &vm.cfg.OptCost)
		}
		if cf.aotBlocks == nil && cf.regCode != nil {
			cf.aotBlocks, cf.aotEntry = translateAOT(vm, cf)
		}
		if cf.aotBlocks != nil {
			vm.aotBuilt++
			vm.aotBlockCount += len(cf.aotBlocks)
			if vm.inst != nil {
				vm.inst.AOTTranslated.Inc()
				vm.inst.Superblocks.Add(float64(len(cf.aotBlocks)))
			}
			if vm.tracer != nil {
				vm.tracer.Emit(obsv.Event{Kind: obsv.KindAOTCompile, TS: vm.cycles,
					Name: cf.name, Track: "wasm",
					A: float64(len(cf.aotBlocks)), B: float64(len(cf.regCode))})
			}
		}
	}
	return cf.aotBlocks
}

// translateAOT partitions cf's register body into superblocks and binds
// the closure chains. Returns (nil, nil) on a conservative bail.
func translateAOT(vm *VM, cf *compiledFunc) ([]aotBlock, []int32) {
	code := cf.regCode
	n := len(code)
	if n == 0 {
		return nil, nil
	}

	// Leaders: pc 0, every branch target, and every fall-through edge after
	// a conditional branch or call. Dead slots carry zero-value jumps, so
	// only live branch kinds contribute targets.
	leader := make([]bool, n)
	leader[0] = true
	mark := func(p int32) {
		if int(p) < n {
			leader[p] = true
		}
	}
	for pc := 0; pc < n; pc++ {
		switch in := &code[pc]; in.kind {
		case rIf, rBrIf:
			mark(in.jump.pc)
			mark(int32(pc + 1))
		case rJump:
			mark(in.jump.pc)
		case rBrTable:
			for i := range in.targets {
				mark(in.targets[i].pc)
			}
		case rCmpBrIf, rGeS32BrIf, rLtS32BrIf:
			mark(in.jump.pc)
			mark(int32(pc + 2))
		case rCall:
			mark(int32(pc + 1))
		}
	}

	entry := make([]int32, n)
	var starts []int
	for pc := 0; pc < n; pc++ {
		if leader[pc] {
			entry[pc] = int32(len(starts))
			starts = append(starts, pc)
		} else {
			entry[pc] = -1
		}
	}

	b := &aotBuilder{vm: vm, cf: cf, code: code, entry: entry, leader: leader}
	blocks := make([]aotBlock, len(starts))
	for i, start := range starts {
		if !b.buildBlock(&blocks[i], start) {
			return nil, nil
		}
	}
	return blocks, entry
}

// aotAgg accumulates steps and per-class counts (padded like vm.tally so a
// CostClass indexes without a bounds check).
type aotAgg struct {
	steps   uint64
	classes [256]uint64
}

func (a *aotAgg) add(c CostClass) {
	a.steps++
	a.classes[c]++
}

func (a *aotAgg) deltas() []aotClassDelta {
	var out []aotClassDelta
	for c, n := range a.classes {
		if n != 0 {
			out = append(out, aotClassDelta{class: CostClass(c), n: n})
		}
	}
	return out
}

// snapshot freezes the aggregate as a trap rollback.
func (a *aotAgg) snapshot() *aotRollback {
	if a.steps == 0 {
		return &aotNoRollback
	}
	return &aotRollback{steps: a.steps, classes: a.deltas()}
}

// aotJump is a branch edge resolved to a block index, with the carried
// value's register move (at most one, as in rbranch).
type aotJump struct {
	blk  int32
	src  int32
	dst  int32
	keep bool
}

// aotTableTarget is one resolved br_table edge.
type aotTableTarget struct {
	src  int32
	dst  int32
	keep bool
	blk  int32
}

// aotBuilder carries translation state shared across blocks.
type aotBuilder struct {
	vm     *VM
	cf     *compiledFunc
	code   []rop
	entry  []int32
	leader []bool
}

// blockAt resolves a register-form pc to a block index; past the end of
// the body it is the function return.
func (b *aotBuilder) blockAt(p int32) int32 {
	if int(p) >= len(b.code) {
		return aotRet
	}
	return b.entry[p]
}

func (b *aotBuilder) resolveJump(j *rbranch) aotJump {
	return aotJump{blk: b.blockAt(j.pc), src: j.src, dst: j.dst, keep: j.keep != 0}
}

// buildBlock walks one superblock from its leader, precomputes the hoisted
// accounting, and binds the closure chain back to front (so every
// trappable op can snapshot the aggregate of what follows it as its
// rollback).
func (b *aotBuilder) buildBlock(blk *aotBlock, start int) bool {
	code := b.code
	n := len(code)
	var agg aotAgg  // hoisted whole-block accounting
	var plain []int // non-terminator op pcs, in order
	term := -1
	pc := start
walk:
	for pc < n {
		if pc != start && b.leader[pc] {
			break // fall through into the next block
		}
		in := &code[pc]
		switch in.kind {
		case rDead:
			return false // control cannot reach a dead slot; bail defensively
		case rIf, rJump, rBrIf, rBrTable, rCall, rUnreachable:
			agg.add(in.class)
			term = pc
			break walk
		case rCmpBrIf, rGeS32BrIf, rLtS32BrIf:
			agg.add(in.class)
			agg.add(in.class2)
			term = pc
			break walk
		case rMove2, rConstBin, rConstAdd32, rGetLoad:
			agg.add(in.class)
			agg.add(in.class2)
			plain = append(plain, pc)
			pc += 2
		default:
			agg.add(in.class)
			plain = append(plain, pc)
			pc++
		}
	}
	blk.steps = agg.steps
	blk.classes = agg.deltas()

	var rb aotAgg // running suffix aggregate for trap rollbacks
	var next aotFn
	if term >= 0 {
		next = b.mkTerm(&code[term], term, blk, &rb)
	} else {
		fall := b.blockAt(int32(pc))
		next = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			return cy, fall
		}
	}
	for i := len(plain) - 1; i >= 0; {
		// Coalesce a run of adjacent data-movement ops (register-form moves
		// and constants dominate compiled loop bodies) into one closure:
		// the per-op cost additions stay separate and ordered, only the
		// call-per-op overhead disappears.
		if j := i; moveLike(code[plain[j]].kind) {
			for j > 0 && moveLike(code[plain[j-1]].kind) {
				j--
			}
			if ms := decomposeMoves(code, plain[j:i+1]); len(ms) >= 2 {
				next = mkMoveRun(ms, next)
				for k := j; k <= i; k++ {
					in := &code[plain[k]]
					rb.add(in.class)
					if in.kind == rMove2 {
						rb.add(in.class2)
					}
				}
				i = j - 1
				continue
			}
		}
		next = b.mkOp(&code[plain[i]], next, &rb)
		i--
	}
	if next == nil {
		return false
	}
	blk.head = next
	return true
}

// moveLike reports whether a register op is pure data movement — eligible
// for run coalescing (non-trapping, no side effects beyond register
// writes).
func moveLike(k rkind) bool {
	return k == rMove || k == rMove2 || k == rConst
}

// aotMicroMove is one register write inside a coalesced move run: src ≥ 0
// copies a register, src < 0 materializes val. Each micro-move carries its
// own cost so the virtual-clock additions keep the exact per-instruction
// order and rounding of the other dispatchers.
type aotMicroMove struct {
	dst, src int32
	val      uint64
	cost     float64
}

// decomposeMoves flattens a run of move-like ops into micro-moves (rMove2
// contributes two, one per pair component, each with its own charge).
func decomposeMoves(code []rop, pcs []int) []aotMicroMove {
	var ms []aotMicroMove
	for _, pc := range pcs {
		in := &code[pc]
		switch in.kind {
		case rMove:
			ms = append(ms, aotMicroMove{dst: in.rd, src: in.r1, cost: in.cost})
		case rConst:
			ms = append(ms, aotMicroMove{dst: in.rd, src: -1, val: uint64(in.val), cost: in.cost})
		case rMove2:
			ms = append(ms, aotMicroMove{dst: in.rd, src: in.r1, cost: in.cost})
			ms = append(ms, aotMicroMove{dst: in.rd + 1, src: in.r2, cost: in.cost2})
		}
	}
	return ms
}

// mkMoveRun binds one closure for a whole move run. Pure register-copy
// runs of two or three get straight-line specializations (the hot shapes:
// operand setup and loop-variable writeback); anything longer or holding
// constants takes the generic loop.
func mkMoveRun(ms []aotMicroMove, next aotFn) aotFn {
	allRegs := true
	for i := range ms {
		if ms[i].src < 0 {
			allRegs = false
			break
		}
	}
	switch {
	case allRegs && len(ms) == 2:
		d0, s0, c0 := ms[0].dst, ms[0].src, ms[0].cost
		d1, s1, c1 := ms[1].dst, ms[1].src, ms[1].cost
		return func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			cy += c0
			fr[d0] = fr[s0]
			cy += c1
			fr[d1] = fr[s1]
			return next(vm, fr, cy)
		}
	case allRegs && len(ms) == 3:
		d0, s0, c0 := ms[0].dst, ms[0].src, ms[0].cost
		d1, s1, c1 := ms[1].dst, ms[1].src, ms[1].cost
		d2, s2, c2 := ms[2].dst, ms[2].src, ms[2].cost
		return func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			cy += c0
			fr[d0] = fr[s0]
			cy += c1
			fr[d1] = fr[s1]
			cy += c2
			fr[d2] = fr[s2]
			return next(vm, fr, cy)
		}
	default:
		return func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			for i := range ms {
				m := &ms[i]
				cy += m.cost
				if m.src >= 0 {
					fr[m.dst] = fr[m.src]
				} else {
					fr[m.dst] = m.val
				}
			}
			return next(vm, fr, cy)
		}
	}
}

// mkTerm binds the block terminator closure and records its contribution
// to the suffix aggregate.
func (b *aotBuilder) mkTerm(in *rop, pc int, blk *aotBlock, rb *aotAgg) aotFn {
	cost := in.cost
	r1, r2 := in.r1, in.r2
	var fn aotFn
	switch in.kind {
	case rCall:
		blk.call = &aotCall{idx: in.a, np: int(in.r1), base: in.rd, next: b.blockAt(int32(pc + 1))}
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			return cy + cost, aotCallMark
		}
	case rUnreachable:
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			vm.aotErr = ErrUnreachable
			vm.aotRb = &aotNoRollback
			return cy + cost, aotTrap
		}
	case rIf: // branch when the condition is zero (the false edge)
		j := b.resolveJump(&in.jump)
		fall := b.blockAt(int32(pc + 1))
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			cy += cost
			if uint32(fr[r1]) == 0 {
				if j.keep {
					fr[j.dst] = fr[j.src]
				}
				return cy, j.blk
			}
			return cy, fall
		}
	case rJump:
		j := b.resolveJump(&in.jump)
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			cy += cost
			if j.keep {
				fr[j.dst] = fr[j.src]
			}
			return cy, j.blk
		}
	case rBrIf:
		j := b.resolveJump(&in.jump)
		fall := b.blockAt(int32(pc + 1))
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			cy += cost
			if uint32(fr[r1]) != 0 {
				if j.keep {
					fr[j.dst] = fr[j.src]
				}
				return cy, j.blk
			}
			return cy, fall
		}
	case rBrTable:
		tgts := make([]aotTableTarget, len(in.targets))
		for i := range in.targets {
			t := &in.targets[i]
			tgts[i] = aotTableTarget{src: t.src, dst: t.dst, keep: t.keep != 0, blk: b.blockAt(t.pc)}
		}
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			cy += cost
			c := uint32(fr[r1])
			t := &tgts[len(tgts)-1] // default is last
			if int(c) < len(tgts)-1 {
				t = &tgts[c]
			}
			if t.keep {
				fr[t.dst] = fr[t.src]
			}
			return cy, t.blk
		}
	case rGeS32BrIf:
		cost2 := in.cost2
		j := b.resolveJump(&in.jump)
		fall := b.blockAt(int32(pc + 2))
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			cy += cost
			cy += cost2
			if int32(fr[r1]) >= int32(fr[r2]) {
				if j.keep {
					fr[j.dst] = fr[j.src]
				}
				return cy, j.blk
			}
			return cy, fall
		}
	case rLtS32BrIf:
		cost2 := in.cost2
		j := b.resolveJump(&in.jump)
		fall := b.blockAt(int32(pc + 2))
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			cy += cost
			cy += cost2
			if int32(fr[r1]) < int32(fr[r2]) {
				if j.keep {
					fr[j.dst] = fr[j.src]
				}
				return cy, j.blk
			}
			return cy, fall
		}
	case rCmpBrIf:
		cost2 := in.cost2
		op2 := in.op2
		j := b.resolveJump(&in.jump)
		fall := b.blockAt(int32(pc + 2))
		if r2 < 0 { // unary comparison (eqz); comparisons cannot trap
			fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
				cy += cost
				cy += cost2
				c, _ := numUnary(op2, fr[r1])
				if uint32(c) != 0 {
					if j.keep {
						fr[j.dst] = fr[j.src]
					}
					return cy, j.blk
				}
				return cy, fall
			}
		} else {
			fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
				cy += cost
				cy += cost2
				c, _ := numBinary(op2, fr[r1], fr[r2])
				if uint32(c) != 0 {
					if j.keep {
						fr[j.dst] = fr[j.src]
					}
					return cy, j.blk
				}
				return cy, fall
			}
		}
	default:
		return nil
	}
	rb.add(in.class)
	switch in.kind {
	case rCmpBrIf, rGeS32BrIf, rLtS32BrIf:
		rb.add(in.class2)
	}
	return fn
}

// mkOp binds one mid-block closure. Trappable kinds snapshot the current
// suffix aggregate — everything already bound after them — as their trap
// rollback, then the op adds its own contribution for the ops before it.
func (b *aotBuilder) mkOp(in *rop, next aotFn, rb *aotAgg) aotFn {
	if next == nil {
		return nil
	}
	cost := in.cost
	r1, r2, rd := in.r1, in.r2, in.rd
	var rbp *aotRollback
	switch in.kind {
	case rUn, rBin, rLoad, rStore, rConstBin, rGetLoad:
		rbp = rb.snapshot()
	}
	var fn aotFn
	switch in.kind {
	case rNop:
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			return next(vm, fr, cy+cost)
		}
	case rMove:
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			fr[rd] = fr[r1]
			return next(vm, fr, cy+cost)
		}
	case rConst:
		val := uint64(in.val)
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			fr[rd] = val
			return next(vm, fr, cy+cost)
		}
	case rGlobalGet:
		globals := b.vm.globals
		a := in.a
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			fr[rd] = globals[a]
			return next(vm, fr, cy+cost)
		}
	case rGlobalSet:
		globals := b.vm.globals
		a := in.a
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			globals[a] = fr[r1]
			return next(vm, fr, cy+cost)
		}
	case rAddI32:
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			fr[rd] = uint64(uint32(fr[r1]) + uint32(fr[r2]))
			return next(vm, fr, cy+cost)
		}
	case rSubI32:
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			fr[rd] = uint64(uint32(fr[r1]) - uint32(fr[r2]))
			return next(vm, fr, cy+cost)
		}
	case rMulI32:
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			fr[rd] = uint64(uint32(fr[r1]) * uint32(fr[r2]))
			return next(vm, fr, cy+cost)
		}
	case rAddI64:
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			fr[rd] = fr[r1] + fr[r2]
			return next(vm, fr, cy+cost)
		}
	case rAddF64:
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			fr[rd] = F64(AsF64(fr[r1]) + AsF64(fr[r2]))
			return next(vm, fr, cy+cost)
		}
	case rMulF64:
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			fr[rd] = F64(AsF64(fr[r1]) * AsF64(fr[r2]))
			return next(vm, fr, cy+cost)
		}
	case rShlI32:
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			fr[rd] = uint64(uint32(fr[r1]) << (uint32(fr[r2]) & 31))
			return next(vm, fr, cy+cost)
		}
	case rAndI32:
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			fr[rd] = uint64(uint32(fr[r1]) & uint32(fr[r2]))
			return next(vm, fr, cy+cost)
		}
	case rXorI32:
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			fr[rd] = uint64(uint32(fr[r1]) ^ uint32(fr[r2]))
			return next(vm, fr, cy+cost)
		}
	case rExtI64S:
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			fr[rd] = uint64(int64(int32(fr[r1])))
			return next(vm, fr, cy+cost)
		}
	case rUn:
		op := in.op
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			cy += cost
			v, err := numUnary(op, fr[r1])
			if err != nil {
				vm.aotErr = err
				vm.aotRb = rbp
				return cy, aotTrap
			}
			fr[rd] = v
			return next(vm, fr, cy)
		}
	case rBin:
		op := in.op
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			cy += cost
			v, err := numBinary(op, fr[r1], fr[r2])
			if err != nil {
				vm.aotErr = err
				vm.aotRb = rbp
				return cy, aotTrap
			}
			fr[rd] = v
			return next(vm, fr, cy)
		}
	case rLoad:
		mem := b.vm.mem
		op := in.op
		off := uint64(in.b)
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			cy += cost
			v, err := memLoad(mem, op, uint64(uint32(fr[r1]))+off)
			if err != nil {
				vm.aotErr = err
				vm.aotRb = rbp
				return cy, aotTrap
			}
			fr[rd] = v
			return next(vm, fr, cy)
		}
	case rStore:
		mem := b.vm.mem
		op := in.op
		off := uint64(in.b)
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			cy += cost
			if err := memStore(mem, op, uint64(uint32(fr[r1]))+off, fr[r2]); err != nil {
				vm.aotErr = err
				vm.aotRb = rbp
				return cy, aotTrap
			}
			return next(vm, fr, cy)
		}
	case rSelect:
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			if uint32(fr[rd+2]) == 0 {
				fr[rd] = fr[rd+1]
			}
			return next(vm, fr, cy+cost)
		}
	case rMemSize:
		mem := b.vm.mem
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			fr[rd] = uint64(mem.Pages())
			return next(vm, fr, cy+cost)
		}
	case rMemGrow:
		mem := b.vm.mem
		name := b.cf.name
		growCost := b.vm.cfg.GrowBoundaryCost
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			cy += cost
			d := uint32(fr[r1])
			g := mem.Grow(d)
			fr[rd] = uint64(uint32(g))
			cy += growCost
			if vm.tracer != nil {
				vm.tracer.Emit(obsv.Event{Kind: obsv.KindMemGrow, TS: cy,
					Name: name, Track: "wasm", A: float64(d), B: float64(g)})
			}
			if vm.inst != nil {
				vm.inst.MemGrowOps.Inc()
				if g >= 0 {
					vm.inst.MemGrowPages.Add(float64(mem.Pages() - uint32(g)))
				}
			}
			return next(vm, fr, cy)
		}

	// Pair forms: both components' cycles are added in the order the
	// stack loop charges them.
	case rMove2:
		cost2 := in.cost2
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			cy += cost
			cy += cost2
			fr[rd] = fr[r1]
			fr[rd+1] = fr[r2]
			return next(vm, fr, cy)
		}
	case rConstAdd32:
		cost2 := in.cost2
		k := uint32(in.val)
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			cy += cost
			cy += cost2
			fr[rd] = uint64(uint32(fr[r1]) + k)
			return next(vm, fr, cy)
		}
	case rConstBin:
		cost2 := in.cost2
		op2 := in.op2
		val := uint64(in.val)
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			cy += cost
			cy += cost2
			v, err := numBinary(op2, fr[r1], val)
			if err != nil {
				vm.aotErr = err
				vm.aotRb = rbp
				return cy, aotTrap
			}
			fr[rd] = v
			return next(vm, fr, cy)
		}
	case rGetLoad:
		cost2 := in.cost2
		mem := b.vm.mem
		op2 := in.op2
		off := uint64(in.b)
		fn = func(vm *VM, fr []uint64, cy float64) (float64, int32) {
			cy += cost
			cy += cost2
			v, err := memLoad(mem, op2, uint64(uint32(fr[r1]))+off)
			if err != nil {
				vm.aotErr = err
				vm.aotRb = rbp
				return cy, aotTrap
			}
			fr[rd] = v
			return next(vm, fr, cy)
		}
	default:
		return nil
	}
	rb.add(in.class)
	switch in.kind {
	case rMove2, rConstBin, rConstAdd32, rGetLoad:
		rb.add(in.class2)
	}
	return fn
}
