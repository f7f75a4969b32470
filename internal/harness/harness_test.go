package harness

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/codegen"
	"wasmbench/internal/compiler"
	"wasmbench/internal/ir"
	"wasmbench/internal/wasmvm"
)

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v", g)
	}
	if g := GeoMean([]float64{1, 1, 1}); g != 1 {
		t.Errorf("geomean(1,1,1) = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v", g)
	}
	// Non-positive values are skipped.
	if g := GeoMean([]float64{-1, 0, 4}); g != 4 {
		t.Errorf("geomean with junk = %v", g)
	}
}

func TestGeoMeanScaleInvariance(t *testing.T) {
	// Property: geomean(k*x) = k * geomean(x) for positive inputs.
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var vals, scaled []float64
		for _, r := range raw {
			v := float64(r)/16 + 0.5
			vals = append(vals, v)
			scaled = append(scaled, 3*v)
		}
		return math.Abs(GeoMean(scaled)-3*GeoMean(vals)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFiveNumberSummary(t *testing.T) {
	fn := Summarize([]float64{4, 1, 3, 2, 5})
	if fn.Min != 1 || fn.Max != 5 || fn.Median != 3 || fn.Q1 != 2 || fn.Q3 != 4 {
		t.Errorf("five-number: %+v", fn)
	}
	// Property: min ≤ q1 ≤ median ≤ q3 ≤ max always holds.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var vals []float64
		for _, r := range raw {
			vals = append(vals, float64(r))
		}
		fn := Summarize(vals)
		ordered := fn.Min <= fn.Q1 && fn.Q1 <= fn.Median &&
			fn.Median <= fn.Q3 && fn.Q3 <= fn.Max
		s := append([]float64(nil), vals...)
		sort.Float64s(s)
		return ordered && fn.Min == s[0] && fn.Max == s[len(s)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitSpeed(t *testing.T) {
	// Wasm 1ms vs JS 2ms twice (speedups of 2), wasm 4 vs js 2 once
	// (slowdown of 2).
	s := SplitSpeed([]float64{1, 1, 4}, []float64{2, 2, 2})
	if s.SUCount != 2 || s.SDCount != 1 {
		t.Fatalf("split counts: %+v", s)
	}
	if math.Abs(s.SUGmean-2) > 1e-9 || math.Abs(s.SDGmean-2) > 1e-9 {
		t.Errorf("split gmeans: %+v", s)
	}
	if !s.AllUp || math.Abs(s.AllGmean-math.Pow(2, 1.0/3)) > 1e-9 {
		t.Errorf("all gmean: %+v", s)
	}
}

func TestRunCellsEndToEnd(t *testing.T) {
	b, err := benchsuite.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	cells := []Cell{
		{Bench: b, Size: benchsuite.XS, Level: ir.O2, Lang: "wasm", Profile: browser.Chrome(browser.Desktop)},
		{Bench: b, Size: benchsuite.XS, Level: ir.O2, Lang: "js", Profile: browser.Chrome(browser.Desktop)},
	}
	results := RunCells(cells)
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if results[0].Meas.ExecMS <= 0 || results[1].Meas.ExecMS <= 0 {
		t.Error("measurements missing")
	}
	// Both languages must produce the same program output.
	w := results[0].Meas.Result.OutputStrings()
	j := results[1].Meas.Result.OutputStrings()
	if len(w) == 0 || len(j) == 0 || w[0] != j[0] {
		t.Errorf("outputs differ: %v vs %v", w, j)
	}
}

// TestCellLabel: the label names every field that changes a result, and
// keeps the short form for Cheerp, TierBoth cells.
func TestCellLabel(t *testing.T) {
	b, err := benchsuite.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	chrome := browser.Chrome(browser.Desktop)
	c := Cell{Bench: b, Size: benchsuite.M, Level: ir.O2, Lang: "wasm", Profile: chrome}
	em := c
	em.Toolchain = compiler.Emscripten
	basic := c
	basic.Mode = wasmvm.TierBasicOnly
	x86 := c
	x86.Lang, x86.Profile = "x86", nil
	for _, tc := range []struct {
		c    Cell
		want string
	}{
		{c, "atax/M/wasm/-O2@chrome-desktop"},
		{em, "atax/M/wasm/-O2/emscripten@chrome-desktop"},
		{basic, "atax/M/wasm/-O2/basic@chrome-desktop"},
		{x86, "atax/M/x86/-O2@native"},
	} {
		if got := tc.c.Label(); got != tc.want {
			t.Errorf("Label() = %q, want %q", got, tc.want)
		}
	}
}

// TestCellLangsAndModes: an x86 cell runs the native backend exactly as a
// direct RunX86 of the kernel does, a mode cell measures what the profile
// measures under that MeasureOptions.Mode, and a JS cell has no
// optimizing-only mode.
func TestCellLangsAndModes(t *testing.T) {
	x86 := resCell(t, "atax", benchsuite.XS, "x86")
	x86.Profile = nil
	wasmBasic := resCell(t, "atax", benchsuite.XS, "wasm")
	wasmBasic.Mode = wasmvm.TierBasicOnly
	jsBasic := resCell(t, "atax", benchsuite.XS, "js")
	jsBasic.Mode = wasmvm.TierBasicOnly
	jsOpt := jsBasic
	jsOpt.Mode = wasmvm.TierOptOnly
	res := RunCells([]Cell{x86, wasmBasic, jsBasic, jsOpt})

	all, err := compiler.Compile(x86.Bench.Source, compiler.Options{Opt: ir.O2,
		Defines: x86.Bench.Defines(x86.Size), HeapLimit: x86.Bench.HeapLimitBytes(x86.Size),
		ModuleName: x86.Bench.Name})
	if err != nil {
		t.Fatal(err)
	}
	xr, err := compiler.RunX86(all, codegen.DefaultX86Config())
	if err != nil {
		t.Fatal(err)
	}
	if r := res[0]; r.Err != nil || r.Meas.Result.Cycles != xr.Cycles || r.Art.X86Size() != all.X86Size() {
		t.Errorf("x86 cell: err %v, want cycles %v and size %d", r.Err, xr.Cycles, all.X86Size())
	}

	chrome := wasmBasic.Profile
	wm, err := chrome.MeasureWasmWith(all, browser.MeasureOptions{Mode: wasmvm.TierBasicOnly})
	if err != nil {
		t.Fatal(err)
	}
	if got := keyOf(t, res[1]); got.Cycles != wm.Result.Cycles || got.ExecMS != wm.ExecMS {
		t.Errorf("basic-only wasm cell %+v, profile measures %v ms", got, wm.ExecMS)
	}
	jsCfg := chrome.JS
	jsCfg.JITEnabled = false
	jr, err := compiler.RunJS(all, jsCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := keyOf(t, res[2]); got.Cycles != jr.Cycles {
		t.Errorf("basic-only js cell cycles %v, JIT-less engine %v", got.Cycles, jr.Cycles)
	}
	if !errors.Is(res[3].Err, browser.ErrTierMode) {
		t.Errorf("opt-only js cell: err %v, want ErrTierMode", res[3].Err)
	}
}
