// Package core implements the paper's study itself: the §3 pipeline
// (source transformation → compilation → deployment instrumentation → data
// collection) and one entry point per evaluation experiment (§4), each
// regenerating the corresponding table or figure.
package core

import (
	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/compiler"
	"wasmbench/internal/harness"
	"wasmbench/internal/ir"
	"wasmbench/internal/wasmvm"
)

// Options scopes a study run.
type Options struct {
	// Benchmarks defaults to the full 41-program suite.
	Benchmarks []*benchsuite.Benchmark
	// Sizes defaults to all five classes (input-size experiments only).
	Sizes []benchsuite.Size
}

func (o Options) benchmarks() []*benchsuite.Benchmark {
	if o.Benchmarks != nil {
		return o.Benchmarks
	}
	return benchsuite.All()
}

func (o Options) sizes() []benchsuite.Size {
	if o.Sizes != nil {
		return o.Sizes
	}
	return benchsuite.AllSizes
}

// kernel is the cell every experiment varies: a benchmark compiled by
// Cheerp at -O2 with the medium input. A nil profile is only valid for
// the x86 lang.
func kernel(b *benchsuite.Benchmark, lang string, p *browser.Profile) harness.Cell {
	return harness.Cell{Bench: b, Size: benchsuite.M, Level: ir.O2, Lang: lang, Profile: p}
}

// measure runs cells on the experiment runner with its default options
// and returns the results in cell order, or the first cell error.
func measure(cells []harness.Cell) ([]harness.CellResult, error) {
	res, _ := harness.RunCellsWith(cells, harness.RunOptions{})
	return res, harness.FirstError(res)
}

// ms and kb read a measured cell's execution time and memory.
func ms(r harness.CellResult) float64 { return r.Meas.ExecMS }
func kb(r harness.CellResult) float64 { return r.Meas.MemoryKB }

// ---- §4.2.1: compiler optimization levels (Table 2, Figs. 5/6/11) ----

// OptLevelRow is one benchmark's ratios relative to -O2.
type OptLevelRow struct {
	Bench string
	// Ratio[level][metric]: level in {O1, Ofast, Oz}, metric rows below.
	TimeJS, TimeWasm, TimeX86 map[ir.OptLevel]float64
	SizeJS, SizeWasm, SizeX86 map[ir.OptLevel]float64
	MemJS, MemWasm            map[ir.OptLevel]float64
	FastestWasm               ir.OptLevel
}

// OptLevelsResult backs Table 2 and Figs. 5, 6, 11.
type OptLevelsResult struct {
	Rows   []OptLevelRow
	Levels []ir.OptLevel // the measured non-baseline levels
}

var optLevels = []ir.OptLevel{ir.O1, ir.O2, ir.Oz, ir.Ofast}

// optLevelLangs are the Table 2 targets, in their cell order.
var optLevelLangs = []string{"wasm", "js", "x86"}

// optLevelCells lists Table 2's cells: per benchmark and level, Wasm and
// JS on desktop Chrome and the native x86 backend, at the medium input.
func optLevelCells(benches []*benchsuite.Benchmark) []harness.Cell {
	chrome := browser.Chrome(browser.Desktop)
	var cells []harness.Cell
	for _, b := range benches {
		for _, lv := range optLevels {
			for _, lang := range optLevelLangs {
				c := kernel(b, lang, chrome)
				if lang == "x86" {
					c.Profile = nil
				}
				c.Level = lv
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// RunOptLevels measures the 41 benchmarks at -O1/-O2/-Oz/-Ofast on desktop
// Chrome (Wasm + JS) and on the native x86 backend, with the medium input.
func RunOptLevels(opts Options) (*OptLevelsResult, error) {
	benches := opts.benchmarks()
	res := &OptLevelsResult{Levels: []ir.OptLevel{ir.O1, ir.Ofast, ir.Oz}}
	cells, err := measure(optLevelCells(benches))
	if err != nil {
		return nil, err
	}
	// at returns the wasm, js and x86 cells of benchmark bi at level li.
	at := func(bi, li int) (w, j, x harness.CellResult) {
		k := (bi*len(optLevels) + li) * len(optLevelLangs)
		return cells[k], cells[k+1], cells[k+2]
	}
	for bi, b := range benches {
		w, j, x := at(bi, 1) // the -O2 baseline (optLevels[1])
		row := OptLevelRow{
			Bench:    b.Name,
			TimeJS:   map[ir.OptLevel]float64{},
			TimeWasm: map[ir.OptLevel]float64{},
			TimeX86:  map[ir.OptLevel]float64{},
			SizeJS:   map[ir.OptLevel]float64{},
			SizeWasm: map[ir.OptLevel]float64{},
			SizeX86:  map[ir.OptLevel]float64{},
			MemJS:    map[ir.OptLevel]float64{},
			MemWasm:  map[ir.OptLevel]float64{},
		}
		best, bestT := ir.O2, ms(w)
		for li, lv := range optLevels {
			ow, oj, ox := at(bi, li)
			if ms(ow) < bestT {
				best, bestT = lv, ms(ow)
			}
			if lv == ir.O2 {
				continue
			}
			row.TimeJS[lv] = ms(oj) / ms(j)
			row.TimeWasm[lv] = ms(ow) / ms(w)
			row.TimeX86[lv] = ox.Meas.Result.Cycles / x.Meas.Result.Cycles
			row.SizeJS[lv] = float64(oj.Art.JSSize()) / float64(j.Art.JSSize())
			row.SizeWasm[lv] = float64(ow.Art.WasmSize()) / float64(w.Art.WasmSize())
			row.SizeX86[lv] = float64(ox.Art.X86Size()) / float64(x.Art.X86Size())
			row.MemJS[lv] = kb(oj) / kb(j)
			row.MemWasm[lv] = kb(ow) / kb(w)
		}
		row.FastestWasm = best
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Geomeans extracts Table 2: metric → target → level → geomean ratio.
func (r *OptLevelsResult) Geomeans() map[string]map[string]map[ir.OptLevel]float64 {
	pick := func(f func(OptLevelRow) map[ir.OptLevel]float64, lv ir.OptLevel) float64 {
		var vals []float64
		for _, row := range r.Rows {
			if v, ok := f(row)[lv]; ok && v > 0 {
				vals = append(vals, v)
			}
		}
		return harness.GeoMean(vals)
	}
	out := map[string]map[string]map[ir.OptLevel]float64{}
	metrics := map[string]map[string]func(OptLevelRow) map[ir.OptLevel]float64{
		"time": {
			"js":   func(r OptLevelRow) map[ir.OptLevel]float64 { return r.TimeJS },
			"wasm": func(r OptLevelRow) map[ir.OptLevel]float64 { return r.TimeWasm },
			"x86":  func(r OptLevelRow) map[ir.OptLevel]float64 { return r.TimeX86 },
		},
		"size": {
			"js":   func(r OptLevelRow) map[ir.OptLevel]float64 { return r.SizeJS },
			"wasm": func(r OptLevelRow) map[ir.OptLevel]float64 { return r.SizeWasm },
			"x86":  func(r OptLevelRow) map[ir.OptLevel]float64 { return r.SizeX86 },
		},
		"mem": {
			"js":   func(r OptLevelRow) map[ir.OptLevel]float64 { return r.MemJS },
			"wasm": func(r OptLevelRow) map[ir.OptLevel]float64 { return r.MemWasm },
		},
	}
	for metric, targets := range metrics {
		out[metric] = map[string]map[ir.OptLevel]float64{}
		for tgt, f := range targets {
			out[metric][tgt] = map[ir.OptLevel]float64{}
			for _, lv := range r.Levels {
				out[metric][tgt][lv] = pick(f, lv)
			}
		}
	}
	return out
}

// ---- §4.3: input sizes (Tables 3–6, Fig. 9) ----

// InputSizeCell is one (benchmark, size) pair's measurements.
type InputSizeCell struct {
	Bench     string
	Size      benchsuite.Size
	WasmMS    float64
	JSMS      float64
	WasmMemKB float64
	JSMemKB   float64
}

// InputSizesResult backs Tables 3–6 and Fig. 9.
type InputSizesResult struct {
	Profile string
	Cells   []InputSizeCell
}

// inputSizeCells lists Tables 3–6's cells: Wasm then JS per benchmark
// and size class on profile p.
func inputSizeCells(p *browser.Profile, benches []*benchsuite.Benchmark, sizes []benchsuite.Size) []harness.Cell {
	var cells []harness.Cell
	for _, b := range benches {
		for _, sz := range sizes {
			for _, lang := range []string{"wasm", "js"} {
				c := kernel(b, lang, p)
				c.Size = sz
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// RunInputSizes measures the suite across input classes on one profile
// (the paper uses desktop Chrome for Tables 3/4, desktop Firefox for 5/6).
func RunInputSizes(p *browser.Profile, opts Options) (*InputSizesResult, error) {
	cells, err := measure(inputSizeCells(p, opts.benchmarks(), opts.sizes()))
	if err != nil {
		return nil, err
	}
	res := &InputSizesResult{Profile: p.Name()}
	for k := 0; k < len(cells); k += 2 {
		w, j := cells[k], cells[k+1]
		res.Cells = append(res.Cells, InputSizeCell{
			Bench: w.Bench.Name, Size: w.Size,
			WasmMS: ms(w), JSMS: ms(j),
			WasmMemKB: kb(w), JSMemKB: kb(j),
		})
	}
	return res, nil
}

// SpeedStats computes the Table 3/5 split per size class.
func (r *InputSizesResult) SpeedStats() map[benchsuite.Size]harness.SpeedSplit {
	out := map[benchsuite.Size]harness.SpeedSplit{}
	bySize := map[benchsuite.Size][][2]float64{}
	for _, c := range r.Cells {
		bySize[c.Size] = append(bySize[c.Size], [2]float64{c.WasmMS, c.JSMS})
	}
	for sz, pairs := range bySize {
		var w, j []float64
		for _, p := range pairs {
			w = append(w, p[0])
			j = append(j, p[1])
		}
		out[sz] = harness.SplitSpeed(w, j)
	}
	return out
}

// MemStats computes Table 4/6: average memory per size class.
func (r *InputSizesResult) MemStats() map[benchsuite.Size][2]float64 {
	out := map[benchsuite.Size][2]float64{}
	bySize := map[benchsuite.Size][][2]float64{}
	for _, c := range r.Cells {
		bySize[c.Size] = append(bySize[c.Size], [2]float64{c.JSMemKB, c.WasmMemKB})
	}
	for sz, pairs := range bySize {
		var js, wm []float64
		for _, p := range pairs {
			js = append(js, p[0])
			wm = append(wm, p[1])
		}
		out[sz] = [2]float64{harness.Mean(js), harness.Mean(wm)}
	}
	return out
}

// ---- §4.4: JIT (Fig. 10, Table 7) ----

// JITRow is one benchmark's JIT-on/JIT-off improvement factors.
type JITRow struct {
	Bench string
	Suite string
	JS    float64 // JIT-enabled speedup over JIT-less (JS)
	Wasm  float64 // same for Wasm (default vs basic-only)
}

// JITResult backs Fig. 10.
type JITResult struct{ Rows []JITRow }

// jitCells lists Fig. 10's cells on desktop Chrome: per benchmark, JS
// and Wasm, each with both tiers and then basic-only (JS --no-opt, Wasm
// --liftoff --no-wasm-tier-up).
func jitCells(benches []*benchsuite.Benchmark) []harness.Cell {
	chrome := browser.Chrome(browser.Desktop)
	var cells []harness.Cell
	for _, b := range benches {
		for _, lang := range []string{"js", "wasm"} {
			for _, mode := range []wasmvm.TierMode{wasmvm.TierBoth, wasmvm.TierBasicOnly} {
				c := kernel(b, lang, chrome)
				c.Mode = mode
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// RunJIT measures JIT impact on desktop Chrome with medium inputs.
func RunJIT(opts Options) (*JITResult, error) {
	benches := opts.benchmarks()
	cells, err := measure(jitCells(benches))
	if err != nil {
		return nil, err
	}
	res := &JITResult{}
	for i, b := range benches {
		jsOn, jsOff, wOn, wOff := cells[4*i], cells[4*i+1], cells[4*i+2], cells[4*i+3]
		res.Rows = append(res.Rows, JITRow{
			Bench: b.Name,
			Suite: b.Suite,
			JS:    ms(jsOff) / ms(jsOn),
			Wasm:  ms(wOff) / ms(wOn),
		})
	}
	return res, nil
}

// Table7Row is the Wasm tier comparison for one browser/suite pair.
type Table7Row struct {
	Suite     string
	Browser   string
	BasicOnly float64 // default ÷ basic-only execution speed ratio
	OptOnly   float64 // default ÷ optimizing-only
}

// Table7Result backs Table 7.
type Table7Result struct{ Rows []Table7Row }

// table7Modes are Table 7's tier configurations, in their cell order.
var table7Modes = []wasmvm.TierMode{wasmvm.TierBoth, wasmvm.TierBasicOnly, wasmvm.TierOptOnly}

// table7Cells lists Table 7's cells: per profile and benchmark, Wasm in
// each tier configuration.
func table7Cells(profiles []*browser.Profile, benches []*benchsuite.Benchmark) []harness.Cell {
	var cells []harness.Cell
	for _, p := range profiles {
		for _, b := range benches {
			for _, mode := range table7Modes {
				c := kernel(b, "wasm", p)
				c.Mode = mode
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// RunTable7 compares Wasm tier configurations on Chrome and Firefox.
func RunTable7(opts Options) (*Table7Result, error) {
	benches := opts.benchmarks()
	profiles := []*browser.Profile{browser.Chrome(browser.Desktop), browser.Firefox(browser.Desktop)}
	cells, err := measure(table7Cells(profiles, benches))
	if err != nil {
		return nil, err
	}
	res := &Table7Result{}
	for _, suite := range []string{"polybench", "chstone", "overall"} {
		for pi, p := range profiles {
			var basics, opts []float64
			for i, b := range benches {
				if suite != "overall" && b.Suite != suite {
					continue
				}
				k := (pi*len(benches) + i) * len(table7Modes)
				both, basic, optOnly := cells[k], cells[k+1], cells[k+2]
				// Execution-speed ratio of default to the single-tier
				// setting: >1 means the default (both tiers) is faster.
				basics = append(basics, ms(basic)/ms(both))
				opts = append(opts, ms(optOnly)/ms(both))
			}
			res.Rows = append(res.Rows, Table7Row{
				Suite:     suite,
				Browser:   p.Browser,
				BasicOnly: harness.GeoMean(basics),
				OptOnly:   harness.GeoMean(opts),
			})
		}
	}
	return res, nil
}

// ---- §4.5: browsers and platforms (Table 8, Figs. 12/13) ----

// Table8Cell is one deployment setting's aggregate.
type Table8Cell struct {
	Profile    string
	ExecMSJS   float64
	ExecMSWasm float64
	MemKBJS    float64
	MemKBWasm  float64
}

// Table8Result backs Table 8 and Figs. 12/13.
type Table8Result struct {
	Cells []Table8Cell
	// PerBench[profile][bench] = (jsMS, wasmMS, jsKB, wasmKB) for the figures.
	PerBench map[string]map[string][4]float64
}

// browserCells lists Table 8's cells: per profile and benchmark, Wasm
// then JS.
func browserCells(profiles []*browser.Profile, benches []*benchsuite.Benchmark) []harness.Cell {
	var cells []harness.Cell
	for _, p := range profiles {
		for _, b := range benches {
			cells = append(cells, kernel(b, "wasm", p), kernel(b, "js", p))
		}
	}
	return cells
}

// RunBrowsersPlatforms measures the suite in the six deployment settings.
func RunBrowsersPlatforms(opts Options) (*Table8Result, error) {
	benches := opts.benchmarks()
	profiles := browser.AllProfiles()
	cells, err := measure(browserCells(profiles, benches))
	if err != nil {
		return nil, err
	}
	res := &Table8Result{PerBench: map[string]map[string][4]float64{}}
	for pi, p := range profiles {
		var js, wm, jmem, wmem []float64
		byName := map[string][4]float64{}
		for i, b := range benches {
			k := 2 * (pi*len(benches) + i)
			w, j := cells[k], cells[k+1]
			js = append(js, ms(j))
			wm = append(wm, ms(w))
			jmem = append(jmem, kb(j))
			wmem = append(wmem, kb(w))
			byName[b.Name] = [4]float64{ms(j), ms(w), kb(j), kb(w)}
		}
		res.Cells = append(res.Cells, Table8Cell{
			Profile:    p.Name(),
			ExecMSJS:   harness.Mean(js),
			ExecMSWasm: harness.Mean(wm),
			MemKBJS:    harness.Mean(jmem),
			MemKBWasm:  harness.Mean(wmem),
		})
		res.PerBench[p.Name()] = byName
	}
	return res, nil
}

// ---- §4.2.2: Cheerp vs Emscripten ----

// CompilerCompareResult holds the toolchain comparison.
type CompilerCompareResult struct {
	SpeedupGmean float64 // Emscripten time ÷ Cheerp time inverse: >1 = Emscripten faster
	MemRatio     float64 // Emscripten mem ÷ Cheerp mem
}

// compilerCells lists the toolchain comparison's cells: per benchmark,
// Wasm from Cheerp then from Emscripten on desktop Chrome.
func compilerCells(benches []*benchsuite.Benchmark) []harness.Cell {
	chrome := browser.Chrome(browser.Desktop)
	var cells []harness.Cell
	for _, b := range benches {
		em := kernel(b, "wasm", chrome)
		em.Toolchain = compiler.Emscripten
		cells = append(cells, kernel(b, "wasm", chrome), em)
	}
	return cells
}

// RunCompilerCompare compiles the suite with both toolchains at -O2/M on
// desktop Chrome.
func RunCompilerCompare(opts Options) (*CompilerCompareResult, error) {
	cells, err := measure(compilerCells(opts.benchmarks()))
	if err != nil {
		return nil, err
	}
	var speed, mem []float64
	for k := 0; k < len(cells); k += 2 {
		ch, em := cells[k], cells[k+1]
		speed = append(speed, ms(ch)/ms(em)) // >1: Emscripten faster
		mem = append(mem, kb(em)/kb(ch))
	}
	return &CompilerCompareResult{
		SpeedupGmean: harness.GeoMean(speed),
		MemRatio:     harness.GeoMean(mem),
	}, nil
}
