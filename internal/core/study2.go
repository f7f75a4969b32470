package core

import (
	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/compiler"
	"wasmbench/internal/harness"
	"wasmbench/internal/ir"
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

// manualJSCells lists Table 9's cells on profile p: the hand-written
// programs first, one JS cell each (row i's is cells[i]), then a JS and a
// Wasm cell per distinct compiled counterpart (Heat-3d and SHA each back
// two rows but are measured once). at maps each manual row to the index
// of its counterpart's JS cell; the Wasm cell follows it.
func manualJSCells(manuals []*benchsuite.ManualJS, p *browser.Profile) (cells []harness.Cell, at []int, err error) {
	for _, m := range manuals {
		cells = append(cells, harness.Cell{Bench: m.Program(), Lang: "js", Profile: p})
	}
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
	cells, at, err := manualJSCells(manuals, browser.Chrome(browser.Desktop))
	if err != nil {
		return nil, err
	}
	res, err := measure(cells)
	if err != nil {
		return nil, err
	}
	out := &Table9Result{}
	for i, m := range manuals {
		hand, cm, wm := res[i], res[at[i]], res[at[i]+1]
		out.Rows = append(out.Rows, Table9Row{
			Bench:       m.Name,
			ManualMS:    ms(hand),
			CheerpJSMS:  ms(cm),
			WasmMS:      ms(wm),
			ManualMemKB: kb(hand),
			CheerpMemKB: kb(cm),
			WasmMemKB:   kb(wm),
		})
	}
	return out, nil
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

// Table10Result backs Table 10 and, from the same runs, Table 12.
type Table10Result struct {
	Rows []Table10Row
	// OpCounts are Table 12's Long.js operation counts, read off the runs
	// that Rows time.
	OpCounts *Table12Result
}

// realWorldCells lists Table 10's cells on profile p: every experiment's
// JS side, last experiment first, then every Wasm side, once per WebWorker
// shard. Experiment i's JS cell is cells[len(ops)-1-i] and its Wasm cells
// are cells[at[i]:at[i+1]]. The JS sides are the longest runs, FFmpeg's
// (470 M steps) the longest of all, so the workers start them first.
// Real-world Wasm artifacts are independent release builds (the paper's
// ffmpeg.wasm is an Emscripten -O build, Long.js ships hand-written WAT):
// Emscripten at -Oz, without a heap limit.
func realWorldCells(ops []*benchsuite.RealWorldOp, p *browser.Profile) (cells []harness.Cell, at []int) {
	for i := len(ops) - 1; i >= 0; i-- {
		cells = append(cells, harness.Cell{Bench: ops[i].JSProgram(), Lang: "js", Profile: p})
	}
	for _, op := range ops {
		at = append(at, len(cells))
		for _, b := range op.WasmPrograms() {
			cells = append(cells, harness.Cell{Bench: b, Size: benchsuite.M, Level: ir.Oz,
				Lang: "wasm", Profile: p, Toolchain: compiler.Emscripten})
		}
	}
	return cells, append(at, len(cells))
}

// RunRealWorld measures the six Table 10 experiments on desktop Chrome and
// counts Table 12's Long.js operations on the same runs. The FFmpeg Wasm
// implementation runs its frames across WebWorker instances (one module
// instance per worker, §4.6.2); JS is serial.
func RunRealWorld() (*Table10Result, error) {
	ops := benchsuite.RealWorld()
	cells, at := realWorldCells(ops, browser.Chrome(browser.Desktop))
	res, err := measure(cells)
	if err != nil {
		return nil, err
	}
	out := &Table10Result{OpCounts: &Table12Result{}}
	for i, op := range ops {
		js, wasm := res[len(ops)-1-i], res[at[i]:at[i+1]]
		wasmMS := ms(wasm[0])
		if len(wasm) > 1 {
			wasmMS = workerMS(wasm)
		}
		out.Rows = append(out.Rows, Table10Row{
			App: op.App, Op: op.Op, Input: op.Input,
			WasmMS: wasmMS, JSMS: ms(js),
			Ratio: wasmMS / ms(js),
		})
		if op.App == "Long.js" {
			out.OpCounts.Rows = append(out.OpCounts.Rows,
				table12Row(op.Op, "JS", js.Meas.Result.JSArith.Map()),
				table12Row(op.Op, "WASM", wasm[0].Meas.Result.WasmStats.ArithOps()))
		}
	}
	return out, nil
}

// workerMS is what the page observes of a Wasm run sharded across
// WebWorkers: the slowest worker plus per-worker spawn overhead.
func workerMS(shards []harness.CellResult) float64 {
	const workerSpawnMS = 0.12 // worker creation + message round trip
	maxMS := 0.0
	for _, r := range shards {
		maxMS = max(maxMS, ms(r))
	}
	return maxMS + workerSpawnMS*float64(len(shards))
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

func table12Row(bench, lang string, ops map[string]uint64) Table12Row {
	var total uint64
	for _, v := range ops {
		total += v
	}
	return Table12Row{Bench: bench, Lang: lang, Ops: ops, Total: total}
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
