package main

import (
	"fmt"
	"sync"
	"time"

	"wasmbench/internal/browser"
	"wasmbench/internal/compiler"
	"wasmbench/internal/harness"
	"wasmbench/internal/serve"
	"wasmbench/internal/wasmvm"
)

// replay re-executes served requests from the benchmark's own code through
// the same layer calls a server worker makes — artifact lookup or
// compile, pool checkout, import binding and main, pool reset, or the JS
// engine — so each call can be timed. It keeps its own artifacts and
// pools, configured as the server configures its own.
type replay struct {
	profs map[string]*browser.Profile
	mu    sync.Mutex
	arts  map[string]*compiler.Artifact
	pools map[string]*wasmvm.InstancePool
}

func newReplay() *replay {
	return &replay{profs: profileTable(), arts: map[string]*compiler.Artifact{},
		pools: map[string]*wasmvm.InstancePool{}}
}

// compileOptions mirrors the harness's compiler configuration for a cell;
// replayed artifacts must have the cell's fingerprint.
func compileOptions(c harness.Cell) compiler.Options {
	target := compiler.TargetWasm
	if c.Lang == "js" {
		target = compiler.TargetJS
	}
	return compiler.Options{
		Opt: c.Level, Toolchain: c.Toolchain,
		Defines: c.Bench.Defines(c.Size), HeapLimit: c.Bench.HeapLimitBytes(c.Size),
		ModuleName: c.Bench.Name, Targets: []compiler.Target{target},
	}
}

// do replays one request and returns the virtual steps it executed.
func (rp *replay) do(req serve.Request, sp *spans) (uint64, error) {
	cell, err := requestCell(req, rp.profs)
	if err != nil {
		return 0, err
	}
	t0 := sp.start()
	opts := compileOptions(cell)
	fp := compiler.Fingerprint(cell.Bench.Source, opts)
	rp.mu.Lock()
	art := rp.arts[fp]
	rp.mu.Unlock()
	if art == nil {
		if fp != cell.Fingerprint() {
			return 0, fmt.Errorf("%s: replay compile options disagree with the harness", cell.Label())
		}
		if tr := sp.tracer(); tr != nil {
			opts.Tracer = tr
		}
		if art, err = compiler.Compile(cell.Bench.Source, opts); err != nil {
			return 0, err
		}
		rp.mu.Lock()
		rp.arts[fp] = art
		rp.mu.Unlock()
	}
	sp.end(lCompile, t0)

	if cell.Lang == "js" {
		t := sp.start()
		m, err := cell.Profile.MeasureJS(art)
		sp.end(lJS, t)
		if err != nil {
			return 0, err
		}
		sp.add("jsvm.steps", float64(m.Result.Steps))
		sp.add("jsvm.gc_count", float64(m.Result.GCs))
		return m.Result.Steps, nil
	}

	pool := rp.poolFor(fp, art)
	cfg := cell.Profile.Wasm
	if cell.Toolchain == compiler.Emscripten {
		cfg.GrowGranularityPages = 256 // as browser.Profile.MeasureWasm configures it
	}
	t := sp.start()
	vm, _, err := pool.Get(cfg)
	sp.end(lCheckout, t)
	if err != nil {
		return 0, err
	}
	t = sp.start()
	compiler.BindWasmImports(vm)
	_, err = vm.Call("main")
	sp.end(lExec, t)
	steps := vm.Stats().Steps
	sp.add("wasmvm.steps", float64(steps))
	t = sp.start()
	pool.Put(vm)
	sp.end(lReset, t)
	return steps, err
}

// poolFor returns the artifact's pool, sized and configured like the
// harness's per-artifact pools.
func (rp *replay) poolFor(fp string, art *compiler.Artifact) *wasmvm.InstancePool {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	p := rp.pools[fp]
	if p == nil {
		p = wasmvm.NewInstancePool(art.Module, len(art.WasmBinary), wasmvm.PoolOptions{
			MaxInstances: harness.DefaultWorkers() + 1, ColdFallback: true})
		rp.pools[fp] = p
	}
	return p
}

// poolStats sums the counters of every pool.
func (rp *replay) poolStats() wasmvm.PoolStats {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	var agg wasmvm.PoolStats
	for _, p := range rp.pools {
		s := p.Stats()
		agg.Hits += s.Hits
		agg.Misses += s.Misses
		agg.Recycles += s.Recycles
		agg.ColdFallbacks += s.ColdFallbacks
		agg.Live += s.Live
	}
	return agg
}

// run replays reqs on `clients` workers. With sp non-nil every operation
// is traced into it; steps[i] is request i's step count.
func (rp *replay) run(reqs []serve.Request, sp *spans) (steps []uint64, wall time.Duration, err error) {
	steps = make([]uint64, len(reqs))
	errs := make([]error, len(reqs))
	var per [clients]*spans
	if sp != nil {
		for w := range per {
			per[w] = newSpans()
		}
	}
	t0 := time.Now()
	parallel(len(reqs), func(w, i int) {
		op := per[w].start()
		steps[i], errs[i] = rp.do(reqs[i], per[w])
		per[w].op(op)
	})
	wall = time.Since(t0)
	for _, p := range per {
		sp.merge(p)
	}
	for i, e := range errs {
		if e != nil {
			return steps, wall, fmt.Errorf("replay %+v: %w", reqs[i], e)
		}
	}
	return steps, wall, nil
}
