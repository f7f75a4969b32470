package core

import (
	"fmt"
	"sync"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/compiler"
	"wasmbench/internal/harness"
	"wasmbench/internal/ir"
	"wasmbench/internal/wasmvm"
)

// ---- §4.6.1: manually-written JavaScript (Table 9) ----

// Table9Row compares one manual implementation with its compiled
// counterparts.
type Table9Row struct {
	Bench       string
	ManualMS    float64
	CheerpJSMS  float64
	WasmMS      float64
	ManualMemKB float64
	CheerpMemKB float64
	WasmMemKB   float64
}

// Table9Result backs Table 9.
type Table9Result struct{ Rows []Table9Row }

// manualJSCells lists Table 9's compiled columns: a JS and a Wasm cell on
// profile p per distinct counterpart kernel (Heat-3d and SHA each back two
// rows but are measured once). at maps each manual row to the index of
// its counterpart's JS cell; the Wasm cell follows it.
func manualJSCells(manuals []*benchsuite.ManualJS, p *browser.Profile) (cells []harness.Cell, at []int, err error) {
	first := map[string]int{}
	for _, m := range manuals {
		k, ok := first[m.Counterpart]
		if !ok {
			b, err := benchsuite.ByName(m.Counterpart)
			if err != nil {
				return nil, nil, err
			}
			k = len(cells)
			first[m.Counterpart] = k
			cells = append(cells, kernel(b, "js", p), kernel(b, "wasm", p))
		}
		at = append(at, k)
	}
	return cells, at, nil
}

// RunManualJS measures the 11 Table 9 rows on desktop Chrome.
func RunManualJS() (*Table9Result, error) {
	manuals := benchsuite.ManualBenchmarks()
	chrome := browser.Chrome(browser.Desktop)
	cells, at, err := manualJSCells(manuals, chrome)
	if err != nil {
		return nil, err
	}
	compiled, err := measure(cells)
	if err != nil {
		return nil, err
	}
	hand := make([]*browser.Measurement, len(manuals))
	err = parallelDo(len(manuals), func(i int) error {
		m, err := chrome.MeasureJSSource(manuals[i].Source)
		if err != nil {
			return fmt.Errorf("manual %s: %w", manuals[i].Name, err)
		}
		hand[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Table9Result{}
	for i, m := range manuals {
		cm, wm := compiled[at[i]], compiled[at[i]+1]
		res.Rows = append(res.Rows, Table9Row{
			Bench:       m.Name,
			ManualMS:    hand[i].ExecMS,
			CheerpJSMS:  ms(cm),
			WasmMS:      ms(wm),
			ManualMemKB: hand[i].MemoryKB,
			CheerpMemKB: kb(cm),
			WasmMemKB:   kb(wm),
		})
	}
	return res, nil
}

// ---- §4.6.2: real-world applications (Table 10) ----

// Table10Row is one real-world experiment.
type Table10Row struct {
	App    string
	Op     string
	Input  string
	WasmMS float64
	JSMS   float64
	Ratio  float64 // Wasm ÷ JS (the paper's final column)
}

// Table10Result backs Table 10.
type Table10Result struct{ Rows []Table10Row }

// RunRealWorld measures the six Table 10 experiments on desktop Chrome.
// The FFmpeg Wasm implementation runs its frames across WebWorker
// instances (one module instance per worker, §4.6.2); JS is serial.
func RunRealWorld() (*Table10Result, error) {
	ops := benchsuite.RealWorld()
	res := &Table10Result{Rows: make([]Table10Row, len(ops))}
	err := parallelDo(len(ops), func(i int) error {
		op := ops[i]
		chrome := browser.Chrome(browser.Desktop)
		// Real-world Wasm artifacts are independent release builds (the
		// paper's ffmpeg.wasm is an Emscripten -O build, Long.js ships
		// hand-written WAT): compile with the Emscripten flavour at -Oz.
		var wasmMS float64
		if op.Workers > 1 {
			ms, err := runWorkerSharded(chrome, op.WasmSrc, op.Workers)
			if err != nil {
				return fmt.Errorf("%s/%s wasm: %w", op.App, op.Op, err)
			}
			wasmMS = ms
		} else {
			art, err := compiler.Compile(op.WasmSrc, compiler.Options{
				Opt:        ir.Oz,
				Toolchain:  compiler.Emscripten,
				ModuleName: op.App,
				Targets:    []compiler.Target{compiler.TargetWasm},
			})
			if err != nil {
				return fmt.Errorf("%s/%s compile: %w", op.App, op.Op, err)
			}
			m, err := chrome.MeasureWasm(art)
			if err != nil {
				return fmt.Errorf("%s/%s wasm: %w", op.App, op.Op, err)
			}
			wasmMS = m.ExecMS
		}
		jm, err := chrome.MeasureJSSource(op.JSSrc)
		if err != nil {
			return fmt.Errorf("%s/%s js: %w", op.App, op.Op, err)
		}
		res.Rows[i] = Table10Row{
			App: op.App, Op: op.Op, Input: op.Input,
			WasmMS: wasmMS, JSMS: jm.ExecMS,
			Ratio: wasmMS / jm.ExecMS,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runWorkerSharded compiles the frame-range-parameterized module once per
// worker and executes the instances concurrently; the page observes the
// slowest worker plus per-worker spawn overhead.
func runWorkerSharded(p *browser.Profile, src string, workers int) (float64, error) {
	frames := benchsuite.FFmpegFrames
	per := (frames + workers - 1) / workers
	type out struct {
		ms  float64
		err error
	}
	outs := make([]out, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > frames {
			hi = frames
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			art, err := compiler.Compile(src, compiler.Options{
				Opt:        ir.Oz,
				Toolchain:  compiler.Emscripten,
				ModuleName: fmt.Sprintf("ffmpeg-w%d", w),
				Defines:    map[string]string{"LO": fmt.Sprint(lo), "HI": fmt.Sprint(hi)},
				Targets:    []compiler.Target{compiler.TargetWasm},
			})
			if err != nil {
				outs[w] = out{err: err}
				return
			}
			m, err := p.MeasureWasm(art)
			if err != nil {
				outs[w] = out{err: err}
				return
			}
			outs[w] = out{ms: m.ExecMS}
		}(w, lo, hi)
	}
	wg.Wait()
	const workerSpawnMS = 0.12 // worker creation + message round trip
	maxMS := 0.0
	for _, o := range outs {
		if o.err != nil {
			return 0, o.err
		}
		if o.ms > maxMS {
			maxMS = o.ms
		}
	}
	return maxMS + workerSpawnMS*float64(workers), nil
}

// ---- Appendix D: Long.js operation counts (Table 12) ----

// Table12Row is one operation's executed arithmetic-op counts.
type Table12Row struct {
	Bench string
	Lang  string
	Ops   map[string]uint64
	Total uint64
}

// Table12Result backs Table 12.
type Table12Result struct{ Rows []Table12Row }

var table12OpOrder = []string{"ADD", "MUL", "DIV", "REM", "SHIFT", "AND", "OR"}

// RunTable12 instruments the Long.js experiments' arithmetic operations on
// both implementations.
func RunTable12() (*Table12Result, error) {
	res := &Table12Result{}
	for _, op := range benchsuite.RealWorld() {
		if op.App != "Long.js" {
			continue
		}
		art, err := compiler.Compile(op.WasmSrc, compiler.Options{
			Opt:        ir.Oz,
			Toolchain:  compiler.Emscripten,
			ModuleName: "longjs",
			Targets:    []compiler.Target{compiler.TargetWasm},
		})
		if err != nil {
			return nil, err
		}
		wres, err := compiler.RunWasm(art, wasmvm.DefaultConfig())
		if err != nil {
			return nil, err
		}
		wOps := wres.WasmStats.ArithOps()

		chrome := browser.Chrome(browser.Desktop)
		vm := chrome.NewJSVM()
		if _, err := vm.Run(op.JSSrc); err != nil {
			return nil, err
		}
		jOps := vm.ArithOps()

		total := func(m map[string]uint64) uint64 {
			var t uint64
			for _, v := range m {
				t += v
			}
			return t
		}
		res.Rows = append(res.Rows,
			Table12Row{Bench: op.Op, Lang: "JS", Ops: jOps, Total: total(jOps)},
			Table12Row{Bench: op.Op, Lang: "WASM", Ops: wOps, Total: total(wOps)},
		)
	}
	return res, nil
}

// ---- §4.5 context-switch microbenchmark ----

// CtxSwitchResult holds per-browser Wasm↔JS round-trip costs.
type CtxSwitchResult struct {
	NS map[string]float64 // browser → nanoseconds per round trip
}

// RunCtxSwitch reports the §4.5 boundary-cost comparison for the three
// desktop browsers.
func RunCtxSwitch() *CtxSwitchResult {
	res := &CtxSwitchResult{NS: map[string]float64{}}
	for _, p := range browser.AllDesktop() {
		res.NS[p.Browser] = p.CtxSwitchNS()
	}
	return res
}

// parallelDo runs fn(0..n-1) on up to 8 goroutines and returns an error
// if any call failed. It serves the measurements of non-kernel sources —
// Table 9's hand-written JS and Table 10's applications — which have no
// harness cell.
func parallelDo(n int, fn func(i int) error) error {
	workers := 8
	if n < workers {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	errCh := make(chan error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := fn(i); err != nil {
					errCh <- err
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	return nil
}
