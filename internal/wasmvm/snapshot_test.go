package wasmvm

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"wasmbench/internal/obsv"
	"wasmbench/internal/wasm"
)

// snapModule builds the snapshot-identity workload: a mutable global, a
// data segment (so the post-init image is not all-zero), a hot compute loop
// that stores through memory and updates the global (tiering all the way to
// AOT under the test thresholds), plus the grow/poke/peek probes.
func snapModule() *wasm.Module {
	m := growSpecModule()
	m.Globals = append(m.Globals, wasm.Global{Type: wasm.I32, Mutable: true, Init: 7, Name: "acc"})
	m.Data = append(m.Data, wasm.DataSegment{Offset: 64, Bytes: []byte("post-init image")})
	tI_I := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	// work(n): for i in 0..n { acc += i*i; mem[(i%64)*4] = acc }; return acc
	m.Funcs = append(m.Funcs, wasm.Function{Type: tI_I, Name: "work",
		Locals: []wasm.ValType{wasm.I32}, // local1 = i
		Body: []wasm.Instr{
			{Op: wasm.OpBlock, BlockType: wasm.BlockNone},
			{Op: wasm.OpLoop, BlockType: wasm.BlockNone},
			{Op: wasm.OpLocalGet, A: 1}, {Op: wasm.OpLocalGet, A: 0}, {Op: wasm.OpI32GeS},
			{Op: wasm.OpBrIf, A: 1},
			// acc += i*i
			{Op: wasm.OpGlobalGet, A: 0},
			{Op: wasm.OpLocalGet, A: 1}, {Op: wasm.OpLocalGet, A: 1}, {Op: wasm.OpI32Mul},
			{Op: wasm.OpI32Add}, {Op: wasm.OpGlobalSet, A: 0},
			// mem[(i%64)*4] = acc
			{Op: wasm.OpLocalGet, A: 1}, {Op: wasm.OpI32Const, Val: 64}, {Op: wasm.OpI32RemS},
			{Op: wasm.OpI32Const, Val: 4}, {Op: wasm.OpI32Mul},
			{Op: wasm.OpGlobalGet, A: 0}, {Op: wasm.OpI32Store, A: 2},
			// i++
			{Op: wasm.OpLocalGet, A: 1}, {Op: wasm.OpI32Const, Val: 1},
			{Op: wasm.OpI32Add}, {Op: wasm.OpLocalSet, A: 1},
			{Op: wasm.OpBr, A: 0},
			{Op: wasm.OpEnd},
			{Op: wasm.OpEnd},
			{Op: wasm.OpGlobalGet, A: 0},
			{Op: wasm.OpEnd},
		}})
	m.Exports = append(m.Exports, wasm.Export{Name: "work", Kind: wasm.ExportFunc, Idx: uint32(len(m.Funcs) - 1)})
	return m
}

// vmFingerprint is every externally observable virtual metric of a run:
// results, the full cycle clock, stats, memory image checksum, profiles,
// the translation counter, and the trace event stream. Pooled and cold
// executions must agree on all of it, byte for byte.
type vmFingerprint struct {
	results  []uint64
	cycles   float64
	stats    Stats
	peak     uint64
	pages    uint32
	memSum   uint64
	aotBuilt int
	profiles []obsv.FuncProfile
	events   []obsv.Event
}

func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// runWorkload drives the shared snapshot workload on an instantiated VM
// whose config carries tc (a fresh Collector) as tracer.
func runWorkload(t *testing.T, vm *VM, tc *obsv.Collector) vmFingerprint {
	t.Helper()
	var rs []uint64
	rs = append(rs, call1(t, vm, "poke", I32(16), I32(0x5EED)))
	rs = append(rs, call1(t, vm, "work", I32(400)))
	rs = append(rs, call1(t, vm, "grow", I32(2)))
	rs = append(rs, call1(t, vm, "work", I32(100)))
	rs = append(rs, call1(t, vm, "peek", I32(64)))
	fp := vmFingerprint{
		results:  rs,
		cycles:   vm.Cycles(),
		stats:    vm.Stats(),
		peak:     vm.PeakMemoryBytes(),
		pages:    vm.Memory().Pages(),
		memSum:   fnv1a(logical(vm.Memory())),
		aotBuilt: vm.AOTTranslated(),
		profiles: vm.Profile(),
		events:   tc.Events(),
	}
	return fp
}

// TestSnapshotCloneAndResetIdentity is the core determinism claim: a clone
// from a post-init snapshot and a recycled (Reset) instance produce virtual
// metrics byte-identical to a cold New+Instantiate — across every
// dispatch tier, with tracing and profiling armed.
func TestSnapshotCloneAndResetIdentity(t *testing.T) {
	for name, cfg := range growTierConfigs() {
		t.Run(name, func(t *testing.T) {
			mkCfg := func(tc *obsv.Collector) Config {
				c := cfg
				c.Profile = true
				c.Tracer = tc
				return c
			}

			// Cold reference.
			coldTC := &obsv.Collector{}
			cold, err := New(snapModule(), 123, mkCfg(coldTC))
			if err != nil {
				t.Fatal(err)
			}
			if err := cold.Instantiate(); err != nil {
				t.Fatal(err)
			}
			want := runWorkload(t, cold, coldTC)

			// Clone from a snapshot captured on a fresh instance.
			origin, err := New(snapModule(), 123, cfg)
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
			cloneTC := &obsv.Collector{}
			clone, err := snap.NewVM(mkCfg(cloneTC))
			if err != nil {
				t.Fatal(err)
			}
			got := runWorkload(t, clone, cloneTC)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("clone diverged from cold:\ncold:  %+v\nclone: %+v", want, got)
			}

			// Recycle the clone (retained translated bodies) and run again.
			if err := clone.Reset(); err != nil {
				t.Fatal(err)
			}
			recycleTC := &obsv.Collector{}
			clone.attach(mkCfg(recycleTC))
			got = runWorkload(t, clone, recycleTC)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("recycled instance diverged from cold:\ncold:     %+v\nrecycled: %+v", want, got)
			}

			// And the origin instance itself is resettable after running.
			if _, err := origin.Call("work", I32(50)); err != nil {
				t.Fatal(err)
			}
			if err := origin.Reset(); err != nil {
				t.Fatal(err)
			}
			originTC := &obsv.Collector{}
			origin.attach(mkCfg(originTC))
			got = runWorkload(t, origin, originTC)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("reset origin diverged from cold:\ncold:   %+v\norigin: %+v", want, got)
			}
		})
	}
}

// TestSnapshotClonesAcrossConfigs: the lowered code a snapshot shares is
// config-independent, so one snapshot clones instances for any tier mode
// and dispatcher, each byte-identical to a cold instance of its own config.
func TestSnapshotClonesAcrossConfigs(t *testing.T) {
	origin, err := New(snapModule(), 0, DefaultConfig())
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
	for _, mut := range []func(*Config){
		func(c *Config) { c.Mode = TierOptOnly },
		func(c *Config) { c.Mode = TierOptOnly; c.DisableAOTTier = true },
		func(c *Config) { c.StepLimit = 1 << 40 },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		coldTC, cloneTC := &obsv.Collector{}, &obsv.Collector{}
		cfg.Tracer = coldTC
		cold, err := New(snapModule(), 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cold.Instantiate(); err != nil {
			t.Fatal(err)
		}
		want := runWorkload(t, cold, coldTC)
		cfg.Tracer = cloneTC
		clone, err := snap.NewVM(cfg)
		if err != nil {
			t.Fatalf("clone under %+v: %v", cfg, err)
		}
		if got := runWorkload(t, clone, cloneTC); !reflect.DeepEqual(want, got) {
			t.Errorf("clone diverged from cold:\ncold:  %+v\nclone: %+v", want, got)
		}
	}
}

// TestSnapshotRequiresFreshVM: capture after a call is refused (the image
// would not be the post-init state).
func TestSnapshotRequiresFreshVM(t *testing.T) {
	vm, err := New(snapModule(), 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Instantiate(); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Call("work", I32(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Snapshot(); err == nil {
		t.Fatal("snapshot after a call succeeded; want error")
	}
}

// TestResetAfterTrap: a trapped instance (OOB store) unwinds its call depth
// and recycles back to a clean post-init state.
func TestResetAfterTrap(t *testing.T) {
	cfg := DefaultConfig()
	pool := NewInstancePool(snapModule(), 0, PoolOptions{MaxInstances: 1})
	vm, _, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Call("poke", I32(1<<30), I32(1)); err == nil {
		t.Fatal("OOB poke succeeded; want trap")
	}
	pool.Put(vm)
	st := pool.Stats()
	if st.Recycles != 1 || st.Discards != 0 {
		t.Fatalf("trapped instance not recycled: %+v", st)
	}
	vm2, recycled, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !recycled || vm2 != vm {
		t.Fatalf("expected the recycled trapped instance back (recycled=%v)", recycled)
	}
	if got := AsI32(call1(t, vm2, "peek", I32(64))); got == 0 {
		t.Error("post-init data segment missing after trap recycle")
	}
	pool.Put(vm2)
}

// TestPoolIdleHoldsNoMemory: a returned instance parks without its linear
// memory, and the checkout that reuses it rebuilds the post-init image:
// the module's page count, the data segment, and none of the last run's
// stores.
func TestPoolIdleHoldsNoMemory(t *testing.T) {
	cfg := DefaultConfig()
	pool := NewInstancePool(snapModule(), 0, PoolOptions{MaxInstances: 1})
	vm, _, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	call1(t, vm, "poke", I32(16), I32(0x5EED))
	call1(t, vm, "grow", I32(2))
	pool.Put(vm)
	if b := vm.Memory().Bytes(); b != nil {
		t.Fatalf("idle instance holds %d bytes of linear memory", len(b))
	}
	vm2, recycled, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !recycled || vm2 != vm {
		t.Fatalf("expected the parked instance back (recycled=%v)", recycled)
	}
	b := logical(vm2.Memory())
	if want := int(snapModule().Mem.Min) * PageSize; len(b) != want {
		t.Errorf("reset memory is %d bytes, want %d", len(b), want)
	}
	if b[16] != 0 || string(b[64:64+len("post-init image")]) != "post-init image" {
		t.Error("reset memory is not the post-init image")
	}
	pool.Put(vm2)
}

// TestPoolExhaustionBlocks: a bounded pool without ColdFallback parks Get
// until Put frees a slot — it never errors.
func TestPoolExhaustionBlocks(t *testing.T) {
	cfg := DefaultConfig()
	pool := NewInstancePool(snapModule(), 0, PoolOptions{MaxInstances: 1})
	vm, _, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan *VM, 1)
	go func() {
		v2, _, err := pool.Get(cfg)
		if err != nil {
			panic(err)
		}
		got <- v2
	}()
	select {
	case <-got:
		t.Fatal("second Get returned while the pool was exhausted")
	case <-time.After(50 * time.Millisecond):
	}
	pool.Put(vm)
	select {
	case v2 := <-got:
		if v2 != vm {
			t.Error("blocked Get did not receive the recycled instance")
		}
		pool.Put(v2)
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Get never woke after Put")
	}
	st := pool.Stats()
	if st.Live != 1 || st.Idle != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats after block/unblock: %+v", st)
	}
}

// TestPoolColdFallback: past the bound, Get degrades to an untracked cold
// instance instead of blocking, and Put drops it silently.
func TestPoolColdFallback(t *testing.T) {
	cfg := DefaultConfig()
	pool := NewInstancePool(snapModule(), 64, PoolOptions{MaxInstances: 1, ColdFallback: true})
	v1, _, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v2, recycled, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if recycled {
		t.Error("cold fallback reported recycled")
	}
	// The fallback must still be a fully instantiated, runnable VM with
	// cold-identical virtual state.
	if v2.Cycles() != v1.Cycles() {
		t.Errorf("cold fallback cycles %v != pooled %v", v2.Cycles(), v1.Cycles())
	}
	if _, err := v2.Call("work", I32(10)); err != nil {
		t.Fatal(err)
	}
	pool.Put(v2) // untracked: must be a no-op
	st := pool.Stats()
	if st.ColdFallbacks != 1 || st.Live != 1 || st.Idle != 0 || st.Recycles != 0 {
		t.Errorf("stats after cold fallback: %+v", st)
	}
	pool.Put(v1)
}

// TestPoolEvictsOtherShape: at capacity, an idle instance of a different
// config shape is evicted rather than blocking the checkout.
func TestPoolEvictsOtherShape(t *testing.T) {
	pool := NewInstancePool(snapModule(), 0, PoolOptions{MaxInstances: 1})
	cfgA := DefaultConfig()
	cfgB := DefaultConfig()
	cfgB.TierUpThreshold = 99 // different shape, same snapshot
	vA, _, err := pool.Get(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(vA)
	vB, recycled, err := pool.Get(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if recycled {
		t.Error("shape-B checkout claimed recycled")
	}
	if vB.cfg.TierUpThreshold != 99 {
		t.Errorf("evicting checkout got wrong config: %d", vB.cfg.TierUpThreshold)
	}
	st := pool.Stats()
	if st.Evictions != 1 || st.Live != 1 {
		t.Errorf("stats after eviction: %+v", st)
	}
	pool.Put(vB)
}

// TestPoolConcurrent hammers one pool from many goroutines (run under
// -race by make check): every checkout runs the workload and must observe
// the same virtual cycle count; stats must balance at the end.
func TestPoolConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TierUpThreshold = 50
	pool := NewInstancePool(snapModule(), 0, PoolOptions{MaxInstances: 3})
	const workers = 8
	const iters = 20
	cycles := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				vm, _, err := pool.Get(cfg)
				if err != nil {
					panic(err)
				}
				if _, err := vm.Call("work", I32(300)); err != nil {
					panic(err)
				}
				c := vm.Cycles()
				if cycles[w] == 0 {
					cycles[w] = c
				} else if cycles[w] != c {
					panic(fmt.Sprintf("cycle divergence: %v vs %v", cycles[w], c))
				}
				pool.Put(vm)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if cycles[w] != cycles[0] {
			t.Fatalf("worker %d cycles %v != worker 0 %v", w, cycles[w], cycles[0])
		}
	}
	st := pool.Stats()
	if st.Hits+st.Misses != workers*iters {
		t.Errorf("hits %d + misses %d != checkouts %d", st.Hits, st.Misses, workers*iters)
	}
	if st.Live > 3 || st.Idle != st.Live {
		t.Errorf("pool did not settle: %+v", st)
	}
	if st.Recycles != workers*iters {
		t.Errorf("recycles %d != checkouts %d", st.Recycles, workers*iters)
	}
}

// TestPoolDisabledAOTCheckoutRunsNoSuperblocks: superblocks an instance
// built under one config shape never run under another. A DisableAOTTier
// checkout from a pool whose one instance retains superblocks evicts that
// instance and runs a fresh one on the stack loop, measuring what the AOT
// run measured bar the AOTCycles sub-split; the next AOT checkout
// translates again.
func TestPoolDisabledAOTCheckoutRunsNoSuperblocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TierUpThreshold = 50
	off := cfg
	off.DisableAOTTier = true
	pool := NewInstancePool(snapModule(), 0, PoolOptions{MaxInstances: 1})
	type run struct {
		recycled   bool
		translated int
		stats      Stats
		cycles     float64
	}
	checkout := func(c Config) run {
		vm, recycled, err := pool.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.Call("work", I32(400)); err != nil {
			t.Fatal(err)
		}
		r := run{recycled, vm.AOTTranslated(), vm.Stats(), vm.Cycles()}
		pool.Put(vm)
		return r
	}

	aot := checkout(cfg)
	if aot.translated == 0 {
		t.Fatal("workload never engaged the AOT tier")
	}
	stack := checkout(off)
	if stack.recycled {
		t.Error("DisableAOTTier checkout recycled the AOT-shaped instance")
	}
	if stack.translated != 0 || stack.stats.AOTCycles != 0 {
		t.Error("DisableAOTTier checkout ran AOT superblocks")
	}
	as, ss := aot.stats, stack.stats
	as.AOTCycles, ss.AOTCycles = 0, 0
	if as != ss || aot.cycles != stack.cycles {
		t.Errorf("stack-loop checkout measured %v %+v, AOT checkout %v %+v",
			stack.cycles, ss, aot.cycles, as)
	}
	if again := checkout(cfg); again.recycled || again.translated == 0 {
		t.Errorf("AOT checkout after the stack-loop one: recycled=%v, %d AOT bodies",
			again.recycled, again.translated)
	}
	if st := pool.Stats(); st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2 (one per shape change)", st.Evictions)
	}
}
