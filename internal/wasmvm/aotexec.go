package wasmvm

import "errors"

// errAOTEntry reports an AOT entry at a pc that starts no superblock — an
// internal invariant violation (entries are pc 0 and OSR branch targets,
// which translateAOT always makes leaders), not a wasm trap.
var errAOTEntry = errors.New("wasmvm: internal: AOT entry at a non-leader pc")

// runAOT executes a frame on the AOT tier: superblocks of pre-bound
// closure chains (aot.go) driven by a block-index loop. It is entered
// either at pc 0 from exec, or mid-function at a branch target after a
// loop back-edge tier-up (OSR), in which case the live operand-stack slots
// transfer into their registers first.
//
// Accounting mirrors runStack's flush discipline: cycles accumulate in
// instruction order inside the closures; steps and class tallies are
// hoisted per block and added at block entry (integer addition is
// order-independent); everything flushes at call boundaries, traps, and
// frame exit. The flushed delta feeds both OptCycles (the AOT tier is the
// optimizing tier's dispatcher) and its AOTCycles sub-split.
func (vm *VM) runAOT(fi int, cf *compiledFunc, localBase, stackBase, pc int) ([]uint64, error) {
	entry := cf.aotEntry
	if pc >= len(entry) || entry[pc] < 0 {
		return nil, errAOTEntry
	}
	bi := entry[pc]

	nLocals := cf.nLocals
	for i := int32(0); i < cf.maxStack; i++ {
		vm.locals = append(vm.locals, 0)
	}
	frame := vm.locals[localBase : localBase+nLocals+int(cf.maxStack)]

	// OSR entry: operand-stack slot at height i is register nLocals+i.
	if h := len(vm.stack) - stackBase; h > 0 {
		copy(frame[nLocals:], vm.stack[stackBase:])
		vm.stack = vm.stack[:stackBase]
	}

	blocks := cf.aotBlocks
	steps := vm.stats.Steps
	cycles := vm.cycles
	tierBase := cycles
	counts := &vm.tally
	// Per-function class counts only feed profiles; when not profiling the
	// stack loop's writes land in scratchClass and are never read, so the
	// AOT driver skips them outright.
	profiling := vm.profiling
	fclass := &vm.scratchClass
	if profiling {
		fclass = &vm.profs[fi].classCounts
	}

	for bi >= 0 {
		blk := &blocks[bi]
		steps += blk.steps
		if profiling {
			for _, d := range blk.classes {
				counts[d.class] += d.n
				fclass[d.class] += d.n
			}
		} else {
			for _, d := range blk.classes {
				counts[d.class] += d.n
			}
		}
		var next int32
		cycles, next = blk.head(vm, frame, cycles)
		if next >= 0 {
			bi = next
			continue
		}
		switch next {
		case aotRet:
			bi = -1

		case aotCallMark:
			c := blk.call
			vm.stats.Steps = steps
			vm.cycles = cycles
			delta := cycles - tierBase
			vm.stats.OptCycles += delta
			vm.stats.AOTCycles += delta
			res, err := vm.callIndex(c.idx, frame[c.base:c.base+int32(c.np)])
			steps = vm.stats.Steps
			cycles = vm.cycles
			tierBase = cycles
			if err != nil {
				return nil, err
			}
			copy(frame[c.base:], res)
			bi = c.next

		case aotTrap:
			// The whole block was pre-counted at entry; subtract the suffix
			// that never executed (the trapping op's own charges stay,
			// matching the charge-before-evaluate order of runStack).
			rb := vm.aotRb
			vm.aotRb = nil
			steps -= rb.steps
			for _, d := range rb.classes {
				counts[d.class] -= d.n
				if profiling {
					fclass[d.class] -= d.n
				}
			}
			vm.stats.Steps = steps
			vm.cycles = cycles
			delta := cycles - tierBase
			vm.stats.OptCycles += delta
			vm.stats.AOTCycles += delta
			err := vm.aotErr
			vm.aotErr = nil
			return nil, err
		}
	}
	vm.stats.Steps = steps
	vm.cycles = cycles
	delta := cycles - tierBase
	vm.stats.OptCycles += delta
	vm.stats.AOTCycles += delta

	nr := len(cf.typ.Results)
	vm.ret = append(vm.ret[:0], frame[nLocals:nLocals+nr]...)
	return vm.ret, nil
}
