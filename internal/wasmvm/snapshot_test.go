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

// TestSnapshotCloneIdentity is the core determinism claim: a clone from a
// post-init snapshot produces virtual metrics byte-identical to a cold
// New+Instantiate — across every dispatch tier, with tracing and profiling
// armed — and so does a clone taken after the capture instance has run,
// which is how a pool serves every checkout after its first.
func TestSnapshotCloneIdentity(t *testing.T) {
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
			originTC := &obsv.Collector{}
			origin, err := New(snapModule(), 123, mkCfg(originTC))
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

			// The capture instance itself runs like a cold one, and the
			// translated bodies it and the first clone built leave the
			// snapshot untouched: a later clone still matches cold.
			if got := runWorkload(t, origin, originTC); !reflect.DeepEqual(want, got) {
				t.Errorf("capture instance diverged from cold:\ncold:   %+v\norigin: %+v", want, got)
			}
			laterTC := &obsv.Collector{}
			later, err := snap.NewVM(mkCfg(laterTC))
			if err != nil {
				t.Fatal(err)
			}
			if got := runWorkload(t, later, laterTC); !reflect.DeepEqual(want, got) {
				t.Errorf("later clone diverged from cold:\ncold:  %+v\nlater: %+v", want, got)
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

// TestPoolIdleHoldsNoMemory: Put keeps nothing. An instance handed back,
// here after a trapped call, leaves the pool with no live instance and
// is not handed out again; the next checkout is a fresh clone holding the
// post-init image: the module's page count, the data segment, and none of
// the last run's stores.
func TestPoolIdleHoldsNoMemory(t *testing.T) {
	cfg := DefaultConfig()
	pool := NewInstancePool(snapModule(), 0, PoolOptions{MaxInstances: 1})
	vm, cloned, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cloned {
		t.Error("the capture checkout reported a clone")
	}
	call1(t, vm, "poke", I32(16), I32(0x5EED))
	call1(t, vm, "grow", I32(2))
	if _, err := vm.Call("poke", I32(1<<30), I32(1)); err == nil {
		t.Fatal("OOB poke succeeded; want trap")
	}
	pool.Put(vm)
	pool.Put(vm) // a second hand-back of the same instance is ignored
	if st := pool.Stats(); st.Live != 0 || st.Recycles != 1 {
		t.Fatalf("after Put: %+v, want live 0 and one hand-back", st)
	}
	vm2, cloned, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !cloned || vm2 == vm {
		t.Fatalf("second checkout: cloned=%v, same instance=%v; want a fresh clone", cloned, vm2 == vm)
	}
	b := logical(vm2.Memory())
	if want := int(snapModule().Mem.Min) * PageSize; len(b) != want {
		t.Errorf("clone memory is %d bytes, want %d", len(b), want)
	}
	if b[16] != 0 || string(b[64:64+len("post-init image")]) != "post-init image" {
		t.Error("clone memory is not the post-init image")
	}
	pool.Put(vm2)
	if st := pool.Stats(); st.Live != 0 || st.Hits != 1 || st.Misses != 1 || st.Recycles != 2 {
		t.Errorf("final stats: %+v", st)
	}
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
		if v2 == vm {
			t.Error("blocked Get received the handed-back instance, not a clone")
		}
		pool.Put(v2)
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Get never woke after Put")
	}
	st := pool.Stats()
	if st.Live != 0 || st.Hits != 1 || st.Misses != 1 || st.Recycles != 2 {
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
	v2, cloned, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cloned {
		t.Error("cold fallback reported a clone")
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
	if st.ColdFallbacks != 1 || st.Live != 1 || st.Recycles != 0 {
		t.Errorf("stats after cold fallback: %+v", st)
	}
	pool.Put(v1)
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
	if st.Misses != 1 || st.Hits != workers*iters-1 {
		t.Errorf("hits %d + misses %d, want one capture and %d clones", st.Hits, st.Misses, workers*iters-1)
	}
	if st.Live != 0 {
		t.Errorf("pool did not settle: %+v", st)
	}
	if st.Recycles != workers*iters {
		t.Errorf("recycles %d != checkouts %d", st.Recycles, workers*iters)
	}
}

// TestPoolDisabledAOTCheckoutRunsNoSuperblocks: superblocks one checkout
// translated never run in another. A DisableAOTTier checkout from a pool
// whose capture instance ran on AOT superblocks runs on the stack loop,
// measuring what the AOT run measured bar the AOTCycles sub-split; the
// next AOT checkout translates again.
func TestPoolDisabledAOTCheckoutRunsNoSuperblocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TierUpThreshold = 50
	off := cfg
	off.DisableAOTTier = true
	pool := NewInstancePool(snapModule(), 0, PoolOptions{MaxInstances: 1})
	type run struct {
		cloned     bool
		translated int
		stats      Stats
		cycles     float64
	}
	checkout := func(c Config) run {
		vm, cloned, err := pool.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.Call("work", I32(400)); err != nil {
			t.Fatal(err)
		}
		r := run{cloned, vm.AOTTranslated(), vm.Stats(), vm.Cycles()}
		pool.Put(vm)
		return r
	}

	aot := checkout(cfg)
	if aot.translated == 0 {
		t.Fatal("workload never engaged the AOT tier")
	}
	stack := checkout(off)
	if !stack.cloned {
		t.Error("DisableAOTTier checkout was not a clone")
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
	if again := checkout(cfg); !again.cloned || again.translated != aot.translated || again.stats != aot.stats {
		t.Errorf("AOT checkout after the stack-loop one: cloned=%v, %d AOT bodies, stats %+v; want %d bodies, %+v",
			again.cloned, again.translated, again.stats, aot.translated, aot.stats)
	}
}
