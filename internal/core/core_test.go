package core

import (
	"strings"
	"sync"
	"testing"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/harness"
	"wasmbench/internal/ir"
)

// quickOpts scopes experiments to a small cross-suite subset so the test
// suite stays fast; the full runs live behind cmd/benchtab and the root
// benchmarks.
func quickOpts(t *testing.T, names ...string) Options {
	t.Helper()
	var bs []*benchsuite.Benchmark
	for _, n := range names {
		b, err := benchsuite.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
	}
	return Options{Benchmarks: bs}
}

func TestOptLevelsShape(t *testing.T) {
	opts := quickOpts(t, "gemm", "covariance", "jacobi-2d", "SHA", "ADPCM", "atax")
	r, err := RunOptLevels(opts)
	if err != nil {
		t.Fatal(err)
	}
	g := r.Geomeans()
	// Finding 1 orderings: -Oz ≤ -Ofast < -O2 on Wasm time; the x86 backend
	// inverts (-O1 and -Oz slower than -O2).
	if g["time"]["wasm"][ir.Oz] >= 1.0 {
		t.Errorf("Wasm -Oz should beat -O2: %.3f", g["time"]["wasm"][ir.Oz])
	}
	if g["time"]["x86"][ir.O1] <= 1.0 {
		t.Errorf("x86 -O1 should lose to -O2: %.3f", g["time"]["x86"][ir.O1])
	}
	if g["time"]["x86"][ir.Oz] <= 1.0 {
		t.Errorf("x86 -Oz should lose to -O2: %.3f", g["time"]["x86"][ir.Oz])
	}
	// Memory barely changes with optimization (paper Table 2).
	for _, lv := range r.Levels {
		if v := g["mem"]["wasm"][lv]; v < 0.9 || v > 1.1 {
			t.Errorf("wasm memory ratio at %v out of band: %.3f", lv, v)
		}
	}
	out := r.RenderTable2()
	if !strings.Contains(out, "Exec. Time") {
		t.Error("Table 2 rendering broken")
	}
}

func TestInputSizesShape(t *testing.T) {
	opts := quickOpts(t, "gemm", "floyd-warshall", "SHA")
	opts.Sizes = []benchsuite.Size{benchsuite.XS, benchsuite.M, benchsuite.XL}
	chrome, err := RunInputSizes(browser.Chrome(browser.Desktop), opts)
	if err != nil {
		t.Fatal(err)
	}
	stats := chrome.SpeedStats()
	// Finding: Chrome's Wasm advantage is largest at XS and shrinks with
	// input size (the JIT catches up).
	if !stats[benchsuite.XS].AllUp {
		t.Error("Wasm should win at XS on Chrome")
	}
	if stats[benchsuite.XS].AllGmean <= stats[benchsuite.XL].AllGmean {
		t.Errorf("XS advantage (%.2f) should exceed XL (%.2f)",
			stats[benchsuite.XS].AllGmean, stats[benchsuite.XL].AllGmean)
	}
	// Finding 4: Wasm memory grows with input, JS stays flat.
	mem := chrome.MemStats()
	if mem[benchsuite.XL][1] < 4*mem[benchsuite.XS][1] {
		t.Errorf("Wasm memory should grow: XS %.0f KB -> XL %.0f KB",
			mem[benchsuite.XS][1], mem[benchsuite.XL][1])
	}
	jsDrift := mem[benchsuite.XL][0] / mem[benchsuite.XS][0]
	if jsDrift > 1.1 || jsDrift < 0.9 {
		t.Errorf("JS memory should stay flat: drift %.3f", jsDrift)
	}
}

func TestFirefoxXSFavorsJS(t *testing.T) {
	opts := quickOpts(t, "gemm", "covariance", "jacobi-2d", "atax")
	opts.Sizes = []benchsuite.Size{benchsuite.XS, benchsuite.XL}
	ff, err := RunInputSizes(browser.Firefox(browser.Desktop), opts)
	if err != nil {
		t.Fatal(err)
	}
	stats := ff.SpeedStats()
	// Table 5: on Firefox most XS benchmarks favor JS, XL favors Wasm.
	if stats[benchsuite.XS].SDCount < stats[benchsuite.XS].SUCount {
		t.Errorf("Firefox XS should favor JS: %+v", stats[benchsuite.XS])
	}
	if !stats[benchsuite.XL].AllUp {
		t.Errorf("Firefox XL should favor Wasm: %+v", stats[benchsuite.XL])
	}
}

func TestJITFinding(t *testing.T) {
	opts := quickOpts(t, "gemm", "jacobi-2d", "SHA", "MIPS")
	r, err := RunJIT(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		// Finding 2: JIT transforms JS performance but barely moves Wasm.
		if row.JS < 2 {
			t.Errorf("%s: JS JIT speedup too small: %.2f", row.Bench, row.JS)
		}
		if row.Wasm > 2.5 {
			t.Errorf("%s: Wasm JIT effect too large: %.2f", row.Bench, row.Wasm)
		}
		if row.JS < row.Wasm {
			t.Errorf("%s: JS must gain more from JIT than Wasm", row.Bench)
		}
	}
}

func TestCompilerCompareDirection(t *testing.T) {
	opts := quickOpts(t, "gemm", "SHA", "atax")
	r, err := RunCompilerCompare(opts)
	if err != nil {
		t.Fatal(err)
	}
	// §4.2.2: Emscripten runs faster and uses more memory than Cheerp.
	if r.SpeedupGmean <= 1 {
		t.Errorf("Emscripten should be faster: %.2f", r.SpeedupGmean)
	}
	if r.MemRatio <= 1.5 {
		t.Errorf("Emscripten should use much more memory: %.2f", r.MemRatio)
	}
}

func TestManualJSStrata(t *testing.T) {
	r, err := RunManualJS()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table9Row{}
	for _, row := range r.Rows {
		byName[row.Bench] = row
	}
	// The math.js-library stratum must be slower than the hand-rolled
	// plain version of the same benchmark (library indirection tax).
	if byName["Heat-3d (math.js)"].ManualMS <= 0 || byName["Heat-3d (plain)"].ManualMS <= 0 {
		t.Fatal("missing heat-3d rows")
	}
	// Manual PolyBench implementations allocate garbage-collected nested
	// arrays: more JS-heap memory than the compiled typed-array versions
	// (the paper's second Table 9 observation).
	higherMem := 0
	polybenchRows := 0
	for _, row := range r.Rows {
		switch row.Bench {
		case "3mm", "Covariance", "Syr2k", "Ludcmp", "Floyd-warshall",
			"Heat-3d (plain)", "Heat-3d (math.js)":
			polybenchRows++
			if row.ManualMemKB > row.CheerpMemKB {
				higherMem++
			}
		}
	}
	if higherMem < polybenchRows-1 {
		t.Errorf("manual PolyBench rows should use more memory: %d/%d", higherMem, polybenchRows)
	}
	// The W3C-crypto stratum must beat the compiled JS (paper's exception).
	w3c := byName["SHA (W3C)"]
	if w3c.ManualMS >= w3c.CheerpJSMS {
		t.Errorf("SHA (W3C) should beat Cheerp JS: %.3f vs %.3f", w3c.ManualMS, w3c.CheerpJSMS)
	}
	// And the pure-JS library stratum must be slower than the W3C one.
	jssha := byName["SHA (jsSHA)"]
	if jssha.ManualMS <= w3c.ManualMS {
		t.Errorf("jsSHA should be slower than W3C: %.3f vs %.3f", jssha.ManualMS, w3c.ManualMS)
	}
}

// realWorld runs the real-world study once for the tests that read Table 10
// and Table 12 off it.
var realWorld = sync.OnceValues(RunRealWorld)

func TestRealWorldShapes(t *testing.T) {
	r, err := realWorld()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("expected 6 experiments, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		switch row.App {
		case "Long.js":
			// Wasm's native i64 must beat the limb library.
			if row.Ratio >= 1 {
				t.Errorf("Long.js %s: wasm should win (ratio %.3f)", row.Op, row.Ratio)
			}
		case "Hyphenopoly":
			// Near parity (paper: 0.94-0.96; ours lands within ±15%% of 1).
			if row.Ratio < 0.5 || row.Ratio >= 1.15 {
				t.Errorf("Hyphenopoly %s: ratio %.3f out of band", row.Op, row.Ratio)
			}
		case "FFmpeg":
			// WebWorker parallelism: well under serial JS.
			if row.Ratio > 0.6 {
				t.Errorf("FFmpeg: parallel wasm should be well under JS (ratio %.3f)", row.Ratio)
			}
		}
	}
}

func TestTable12Blowup(t *testing.T) {
	r, err := realWorld()
	if err != nil {
		t.Fatal(err)
	}
	totals := map[string]map[string]uint64{}
	for _, row := range r.OpCounts.Rows {
		if totals[row.Bench] == nil {
			totals[row.Bench] = map[string]uint64{}
		}
		totals[row.Bench][row.Lang] = row.Total
	}
	for bench, m := range totals {
		// Appendix D: the JS limb library executes many times more
		// arithmetic operations than Wasm's native i64.
		if m["JS"] < 3*m["WASM"] {
			t.Errorf("%s: JS ops (%d) should dwarf Wasm ops (%d)", bench, m["JS"], m["WASM"])
		}
	}
}

func TestTable7Render(t *testing.T) {
	opts := quickOpts(t, "gemm", "SHA")
	r, err := RunTable7(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		// Default (both tiers) beats basic-only and roughly ties
		// optimizing-only (Table 7's 0.9-1.1 band).
		if row.BasicOnly < 1.0 {
			t.Errorf("%s/%s: default should beat basic-only (%.2f)", row.Browser, row.Suite, row.BasicOnly)
		}
		if row.OptOnly < 0.7 || row.OptOnly > 1.3 {
			t.Errorf("%s/%s: opt-only ratio out of band (%.2f)", row.Browser, row.Suite, row.OptOnly)
		}
	}
	if !strings.Contains(r.RenderTable7(), "Basic only") {
		t.Error("render broken")
	}
}

// TestCellLabelsDistinct: every experiment's cell list names each cell
// once, so the runner's per-cell records (checkpoint, trace, metrics)
// never conflate two measurements.
func TestCellLabelsDistinct(t *testing.T) {
	all := benchsuite.All()
	manual, _, err := manualJSCells(benchsuite.ManualBenchmarks(), browser.Chrome(browser.Desktop))
	if err != nil {
		t.Fatal(err)
	}
	table10, _ := realWorldCells(benchsuite.RealWorld(), browser.Chrome(browser.Desktop))
	desktop := []*browser.Profile{browser.Chrome(browser.Desktop), browser.Firefox(browser.Desktop)}
	for name, cells := range map[string][]harness.Cell{
		"table2":    optLevelCells(all),
		"table3":    inputSizeCells(browser.Chrome(browser.Desktop), all, benchsuite.AllSizes),
		"fig10":     jitCells(all),
		"table7":    table7Cells(desktop, all),
		"table8":    browserCells(browser.AllProfiles(), all),
		"compilers": compilerCells(all),
		"table9":    manual,
		"table10":   table10,
	} {
		seen := map[string]bool{}
		for _, c := range cells {
			if l := c.Label(); seen[l] {
				t.Errorf("%s: duplicate cell label %s", name, l)
			} else {
				seen[l] = true
			}
		}
	}
}
