package wasmvm

import (
	"testing"

	"wasmbench/internal/wasm"
)

// growSpecModule builds a module for memory.grow spec tests: a one-shot
// grow, a hot grow loop (so the optimizing tier OSRs into it and executes
// grow from a superblock), and store/load probes to verify failed grows
// leave memory untouched.
func growSpecModule() *wasm.Module {
	m := &wasm.Module{}
	tI_I := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	tII_I := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	m.Mem = &wasm.MemType{Min: 1}

	// grow(n) = memory.grow(n)
	m.Funcs = append(m.Funcs, wasm.Function{Type: tI_I, Name: "grow", Body: []wasm.Instr{
		{Op: wasm.OpLocalGet, A: 0}, {Op: wasm.OpMemoryGrow}, {Op: wasm.OpEnd},
	}})
	// growmany(n): n iterations of memory.grow(1), returning how many
	// returned -1. The loop back edge makes it hot enough to tier up.
	m.Funcs = append(m.Funcs, wasm.Function{Type: tI_I, Name: "growmany",
		Locals: []wasm.ValType{wasm.I32, wasm.I32}, // local1 = i, local2 = failures
		Body: []wasm.Instr{
			{Op: wasm.OpBlock, BlockType: wasm.BlockNone},
			{Op: wasm.OpLoop, BlockType: wasm.BlockNone},
			{Op: wasm.OpLocalGet, A: 1}, {Op: wasm.OpLocalGet, A: 0}, {Op: wasm.OpI32GeS},
			{Op: wasm.OpBrIf, A: 1},
			// failures += (memory.grow(1) == -1)
			{Op: wasm.OpI32Const, Val: 1}, {Op: wasm.OpMemoryGrow},
			{Op: wasm.OpI32Const, Val: -1}, {Op: wasm.OpI32Eq},
			{Op: wasm.OpLocalGet, A: 2}, {Op: wasm.OpI32Add}, {Op: wasm.OpLocalSet, A: 2},
			{Op: wasm.OpLocalGet, A: 1}, {Op: wasm.OpI32Const, Val: 1},
			{Op: wasm.OpI32Add}, {Op: wasm.OpLocalSet, A: 1},
			{Op: wasm.OpBr, A: 0},
			{Op: wasm.OpEnd},
			{Op: wasm.OpEnd},
			{Op: wasm.OpLocalGet, A: 2},
			{Op: wasm.OpEnd},
		}})
	// poke(addr, v): store v at addr, return v
	m.Funcs = append(m.Funcs, wasm.Function{Type: tII_I, Name: "poke", Body: []wasm.Instr{
		{Op: wasm.OpLocalGet, A: 0}, {Op: wasm.OpLocalGet, A: 1},
		{Op: wasm.OpI32Store, A: 2},
		{Op: wasm.OpLocalGet, A: 1}, {Op: wasm.OpEnd},
	}})
	// peek(addr) = load addr
	m.Funcs = append(m.Funcs, wasm.Function{Type: tI_I, Name: "peek", Body: []wasm.Instr{
		{Op: wasm.OpLocalGet, A: 0}, {Op: wasm.OpI32Load, A: 2}, {Op: wasm.OpEnd},
	}})
	for i, name := range []string{"grow", "growmany", "poke", "peek"} {
		m.Exports = append(m.Exports, wasm.Export{Name: name, Kind: wasm.ExportFunc, Idx: uint32(i)})
	}
	return m
}

// growTierConfigs returns the execution tiers the spec tests sweep: the
// basic tier on the stack loop, the optimizing tier on the stack loop
// (what serves it when the AOT tier is off or bails), and the optimizing
// tier on AOT superblocks (hot thresholds lowered so the grow loop tiers
// up by OSR).
func growTierConfigs() map[string]Config {
	stack := DefaultConfig()
	stack.DisableAOTTier = true
	stackOpt := DefaultConfig()
	stackOpt.TierUpThreshold = 50
	stackOpt.DisableAOTTier = true
	aot := DefaultConfig()
	aot.TierUpThreshold = 50
	return map[string]Config{"stack": stack, "stack-opt": stackOpt, "aot": aot}
}

// TestFailedGrowSpecAcrossTiers verifies the Wasm spec semantics of a
// failed memory.grow — returns −1 and leaves memory (size and contents)
// unchanged — in every execution tier, with the page cap supplied by
// the engine configuration as a browser tab budget would.
func TestFailedGrowSpecAcrossTiers(t *testing.T) {
	var sentinel uint32 = 0xCAFEBABE
	const iters = 200000
	for name, cfg := range growTierConfigs() {
		cfg.MaxPages = 4
		t.Run(name, func(t *testing.T) {
			vm, err := New(growSpecModule(), 0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := vm.Instantiate(); err != nil {
				t.Fatal(err)
			}
			call1(t, vm, "poke", I32(16), I32(int32(sentinel)))

			// 1→2→3→4 pages succeed; every further grow must return -1.
			fails := AsI32(call1(t, vm, "growmany", I32(iters)))
			if fails != iters-3 {
				t.Errorf("failed grows = %d, want %d", fails, iters-3)
			}
			if p := vm.Memory().Pages(); p != 4 {
				t.Errorf("pages = %d, want 4 (failed grows must not resize)", p)
			}
			if got := uint32(call1(t, vm, "peek", I32(16))); got != sentinel {
				t.Errorf("memory corrupted by failed grow: %#x", got)
			}
			// One more one-shot failure for good measure.
			if r := AsI32(call1(t, vm, "grow", I32(1))); r != -1 {
				t.Errorf("grow at cap = %d, want -1", r)
			}
			if name == "stack-opt" && (vm.Stats().OptCycles == 0 || vm.AOTTranslated() != 0) {
				t.Error("optimizing tier should run on the stack loop")
			}
			if name == "aot" {
				if vm.AOTTranslated() == 0 {
					t.Error("AOT tier never engaged; loop ran on the stack loop")
				}
				if vm.Stats().AOTCycles == 0 {
					t.Error("no cycles charged under the AOT dispatcher")
				}
			}
		})
	}
}

// TestSnapshotGrowSpecAcrossTiers extends the grow spec to instances cloned
// or reset from a snapshot, in every tier: a recycled (Reset) VM and a fresh clone obey the
// same grow semantics as a cold instance — grows succeed up to the config
// cap with spec return values, failed grows at the cap leave size and
// contents untouched, grown pages are reclaimed by Reset (memory never
// shrinks during a run, but recycling returns it to the snapshot image),
// and the snapshot's data is intact after the round trip.
func TestSnapshotGrowSpecAcrossTiers(t *testing.T) {
	var sentinel uint32 = 0xDEADBEA7
	const iters = 300
	for name, cfg := range growTierConfigs() {
		cfg.MaxPages = 4
		t.Run(name, func(t *testing.T) {
			origin, err := New(growSpecModule(), 0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := origin.Instantiate(); err != nil {
				t.Fatal(err)
			}
			snap, err := origin.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snapPages := origin.Memory().Pages()

			// Cold reference run of the grow workload.
			growSpecRound := func(vm *VM) (fails int32, pages uint32, probe uint32, cycles float64) {
				call1(t, vm, "poke", I32(16), I32(int32(sentinel)))
				fails = AsI32(call1(t, vm, "growmany", I32(iters)))
				pages = vm.Memory().Pages()
				probe = uint32(call1(t, vm, "peek", I32(16)))
				cycles = vm.Cycles()
				return
			}
			coldVM, err := New(growSpecModule(), 0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := coldVM.Instantiate(); err != nil {
				t.Fatal(err)
			}
			cFails, cPages, cProbe, cCycles := growSpecRound(coldVM)

			// A fresh clone must replay the round identically.
			clone, err := snap.NewVM(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if f, p, pr, cy := growSpecRound(clone); f != cFails || p != cPages || pr != cProbe || cy != cCycles {
				t.Errorf("clone round (%d,%d,%#x,%v) != cold (%d,%d,%#x,%v)",
					f, p, pr, cy, cFails, cPages, cProbe, cCycles)
			}
			if cPages != 4 || cFails != iters-3 {
				t.Fatalf("workload shape off: pages %d fails %d", cPages, cFails)
			}

			// Reset reclaims the grown pages: back to the snapshot size, with
			// the grow counters rewound and the sentinel store gone.
			if err := clone.Reset(); err != nil {
				t.Fatal(err)
			}
			if p := clone.Memory().Pages(); p != snapPages {
				t.Errorf("pages after Reset = %d, want snapshot size %d", p, snapPages)
			}
			if clone.Stats().GrowOps != 0 {
				t.Errorf("GrowOps after Reset = %d, want 0", clone.Stats().GrowOps)
			}
			// Probe memory directly — a peek call would charge cycles and
			// perturb the recycled round's clock.
			b := logical(clone.Memory())
			if got := uint32(b[16]) | uint32(b[17])<<8 | uint32(b[18])<<16 | uint32(b[19])<<24; got != 0 {
				t.Errorf("sentinel survived Reset: %#x", got)
			}

			// The recycled instance replays the whole round byte-identically —
			// including the failed grows at the cap and the re-grow from the
			// snapshot floor.
			if f, p, pr, cy := growSpecRound(clone); f != cFails || p != cPages || pr != cProbe || cy != cCycles {
				t.Errorf("recycled round (%d,%d,%#x,%v) != cold (%d,%d,%#x,%v)",
					f, p, pr, cy, cFails, cPages, cProbe, cCycles)
			}
			if name == "stack-opt" && clone.Stats().OptCycles == 0 {
				t.Error("optimizing tier never engaged on the recycled instance")
			}
			if name == "aot" && clone.AOTTranslated() == 0 {
				t.Error("AOT tier never engaged on the recycled instance")
			}
		})
	}
}
