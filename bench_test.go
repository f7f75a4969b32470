package wasmbench

// One testing.B benchmark per table and figure in the paper's evaluation
// (§4). Each runs the corresponding experiment and reports its headline
// series via b.ReportMetric, so `go test -bench .` regenerates the paper's
// rows. Benchmarks default to a representative benchmark subset to keep
// -bench runs minutes-scale; set WASMBENCH_FULL=1 for the full 41-program
// suite (what cmd/benchtab runs).

import (
	"os"
	"testing"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/codegen"
	"wasmbench/internal/compiler"
	"wasmbench/internal/core"
	"wasmbench/internal/harness"
	"wasmbench/internal/ir"
	"wasmbench/internal/wasmvm"
)

// benchOpts returns the experiment scope: a spread of PolyBenchC and
// CHStone programs by default, the full suite with WASMBENCH_FULL=1.
func benchOpts(tb testing.TB) core.Options {
	if os.Getenv("WASMBENCH_FULL") != "" {
		return core.Options{}
	}
	names := []string{"gemm", "covariance", "jacobi-2d", "atax", "floyd-warshall",
		"ADPCM", "SHA", "DFMUL", "MIPS"}
	var bs []*benchsuite.Benchmark
	for _, n := range names {
		b, err := benchsuite.ByName(n)
		if err != nil {
			tb.Fatal(err)
		}
		bs = append(bs, b)
	}
	return core.Options{Benchmarks: bs}
}

// BenchmarkTable2OptLevels regenerates Table 2 (and the Fig. 5/6 series):
// execution time, code size, and memory across -O1/-O2/-Oz/-Ofast for JS,
// Wasm, and x86.
func BenchmarkTable2OptLevels(b *testing.B) {
	opts := benchOpts(b)
	for i := 0; i < b.N; i++ {
		r, err := core.RunOptLevels(opts)
		if err != nil {
			b.Fatal(err)
		}
		g := r.Geomeans()
		b.ReportMetric(g["time"]["wasm"][ir.O1], "wasm-O1/O2")
		b.ReportMetric(g["time"]["wasm"][ir.Ofast], "wasm-Ofast/O2")
		b.ReportMetric(g["time"]["wasm"][ir.Oz], "wasm-Oz/O2")
		b.ReportMetric(g["time"]["x86"][ir.O1], "x86-O1/O2")
		b.ReportMetric(g["time"]["x86"][ir.Oz], "x86-Oz/O2")
		b.ReportMetric(g["time"]["js"][ir.Oz], "js-Oz/O2")
	}
}

// BenchmarkFig6X86Opt isolates the x86 backend sweep of Fig. 6.
func BenchmarkFig6X86Opt(b *testing.B) {
	opts := benchOpts(b)
	for i := 0; i < b.N; i++ {
		r, err := core.RunOptLevels(opts)
		if err != nil {
			b.Fatal(err)
		}
		g := r.Geomeans()
		b.ReportMetric(g["time"]["x86"][ir.O1], "time-O1/O2")
		b.ReportMetric(g["time"]["x86"][ir.Ofast], "time-Ofast/O2")
		b.ReportMetric(g["size"]["x86"][ir.Oz], "size-Oz/O2")
	}
}

// BenchmarkFig7AdpcmOfast regenerates the Fig. 7 ablation: dynamic stores
// kept by -Ofast vs -O2 on a dead-global-store kernel.
func BenchmarkFig7AdpcmOfast(b *testing.B) {
	src := `
int result[512];
int sink;
int main() {
	int i;
	for (i = 0; i < 5000; i++) {
		result[i % 512] = i * 3;
		sink = sink + (i & 7);
	}
	return sink;
}
`
	for i := 0; i < b.N; i++ {
		stores := map[ir.OptLevel]float64{}
		for _, lv := range []ir.OptLevel{ir.O2, ir.Ofast} {
			art, err := compiler.Compile(src, compiler.Options{Opt: lv, ModuleName: "fig7"})
			if err != nil {
				b.Fatal(err)
			}
			res, err := compiler.RunWasm(art, wasmvm.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			stores[lv] = float64(res.WasmStats.Counts[wasmvm.CStore])
		}
		b.ReportMetric(stores[ir.O2], "stores-O2")
		b.ReportMetric(stores[ir.Ofast], "stores-Ofast")
	}
}

// BenchmarkFig8CovarianceO1 regenerates the Fig. 8 ablation: -O2's
// rematerialized integral f64 constants vs -O1's local reads, measured as
// dynamic constant-materialization instructions.
func BenchmarkFig8CovarianceO1(b *testing.B) {
	bench, err := benchsuite.ByName("covariance")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		consts := map[ir.OptLevel]float64{}
		for _, lv := range []ir.OptLevel{ir.O1, ir.O2} {
			art, err := compiler.Compile(bench.Source, compiler.Options{
				Opt: lv, Defines: bench.Defines(benchsuite.M), ModuleName: "fig8",
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := compiler.RunWasm(art, wasmvm.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			consts[lv] = float64(res.WasmStats.Counts[wasmvm.CConst])
		}
		b.ReportMetric(consts[ir.O1], "const-ops-O1")
		b.ReportMetric(consts[ir.O2], "const-ops-O2")
	}
}

// BenchmarkCompilersCheerpVsEmscripten regenerates the §4.2.2 comparison.
func BenchmarkCompilersCheerpVsEmscripten(b *testing.B) {
	opts := benchOpts(b)
	for i := 0; i < b.N; i++ {
		r, err := core.RunCompilerCompare(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SpeedupGmean, "emscripten-speedup")
		b.ReportMetric(r.MemRatio, "emscripten-mem-ratio")
	}
}

// BenchmarkFig9InputSizes regenerates Tables 3/4 and the Fig. 9 series on
// desktop Chrome.
func BenchmarkFig9InputSizes(b *testing.B) {
	opts := benchOpts(b)
	if os.Getenv("WASMBENCH_FULL") == "" {
		opts.Sizes = []benchsuite.Size{benchsuite.XS, benchsuite.M, benchsuite.XL}
	}
	for i := 0; i < b.N; i++ {
		r, err := core.RunInputSizes(browser.Chrome(browser.Desktop), opts)
		if err != nil {
			b.Fatal(err)
		}
		stats := r.SpeedStats()
		b.ReportMetric(stats[benchsuite.XS].AllGmean, "XS-gmean")
		b.ReportMetric(stats[benchsuite.XL].AllGmean, "XL-gmean")
		mem := r.MemStats()
		b.ReportMetric(mem[benchsuite.XL][1]/1024, "XL-wasm-MB")
		b.ReportMetric(mem[benchsuite.XL][0], "XL-js-KB")
	}
}

// BenchmarkTable5FirefoxSizes regenerates Tables 5/6 on desktop Firefox.
func BenchmarkTable5FirefoxSizes(b *testing.B) {
	opts := benchOpts(b)
	if os.Getenv("WASMBENCH_FULL") == "" {
		opts.Sizes = []benchsuite.Size{benchsuite.XS, benchsuite.M, benchsuite.XL}
	}
	for i := 0; i < b.N; i++ {
		r, err := core.RunInputSizes(browser.Firefox(browser.Desktop), opts)
		if err != nil {
			b.Fatal(err)
		}
		stats := r.SpeedStats()
		b.ReportMetric(float64(stats[benchsuite.XS].SDCount), "XS-js-wins")
		b.ReportMetric(stats[benchsuite.XL].AllGmean, "XL-gmean")
	}
}

// BenchmarkFig10JIT regenerates the Fig. 10 JIT improvement factors.
func BenchmarkFig10JIT(b *testing.B) {
	opts := benchOpts(b)
	for i := 0; i < b.N; i++ {
		r, err := core.RunJIT(opts)
		if err != nil {
			b.Fatal(err)
		}
		var js, wasm []float64
		for _, row := range r.Rows {
			js = append(js, row.JS)
			wasm = append(wasm, row.Wasm)
		}
		b.ReportMetric(harness.GeoMean(js), "js-jit-speedup")
		b.ReportMetric(harness.GeoMean(wasm), "wasm-jit-speedup")
	}
}

// BenchmarkTable7Tiers regenerates the Table 7 tier configurations.
func BenchmarkTable7Tiers(b *testing.B) {
	opts := benchOpts(b)
	for i := 0; i < b.N; i++ {
		r, err := core.RunTable7(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Suite == "overall" {
				b.ReportMetric(row.BasicOnly, row.Browser+"-basic")
				b.ReportMetric(row.OptOnly, row.Browser+"-opt")
			}
		}
	}
}

// BenchmarkTable8Browsers regenerates the §4.5 six-deployment aggregate
// (and the Fig. 12/13 per-benchmark series).
func BenchmarkTable8Browsers(b *testing.B) {
	opts := benchOpts(b)
	for i := 0; i < b.N; i++ {
		r, err := core.RunBrowsersPlatforms(opts)
		if err != nil {
			b.Fatal(err)
		}
		var chromeW, chromeJ float64
		for _, c := range r.Cells {
			if c.Profile == "chrome-desktop" {
				chromeW, chromeJ = c.ExecMSWasm, c.ExecMSJS
			}
		}
		for _, c := range r.Cells {
			if c.Profile == "chrome-desktop" || chromeW == 0 {
				continue
			}
			if c.Profile == "firefox-desktop" {
				b.ReportMetric(c.ExecMSWasm/chromeW, "firefox-wasm-vs-chrome")
				b.ReportMetric(c.ExecMSJS/chromeJ, "firefox-js-vs-chrome")
			}
			if c.Profile == "edge-desktop" {
				b.ReportMetric(c.ExecMSWasm/chromeW, "edge-wasm-vs-chrome")
			}
		}
	}
}

// BenchmarkContextSwitch regenerates the §4.5 Wasm↔JS boundary
// microbenchmark.
func BenchmarkContextSwitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := core.RunCtxSwitch()
		b.ReportMetric(r.NS["firefox"]/r.NS["chrome"], "firefox-vs-chrome")
		b.ReportMetric(r.NS["chrome"], "chrome-ns")
	}
}

// BenchmarkTable9ManualJS regenerates the §4.6.1 manual-JavaScript rows.
func BenchmarkTable9ManualJS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.RunManualJS()
		if err != nil {
			b.Fatal(err)
		}
		var slowdowns []float64
		for _, row := range r.Rows {
			slowdowns = append(slowdowns, row.ManualMS/row.CheerpJSMS)
		}
		b.ReportMetric(harness.GeoMean(slowdowns), "manual-vs-cheerp")
	}
}

// BenchmarkTable10RealWorld regenerates the §4.6.2 application rows and,
// from the same runs, the Appendix D operation counts (Table 12).
func BenchmarkTable10RealWorld(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.RunRealWorld()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.App == "FFmpeg" {
				b.ReportMetric(row.Ratio, "ffmpeg-wasm/js")
			}
			if row.App == "Long.js" && row.Op == "multiplication" {
				b.ReportMetric(row.Ratio, "longjs-mul-wasm/js")
			}
		}
		b.ReportMetric(table12Blowup(r.OpCounts), "js/wasm-op-blowup")
	}
}

// table12Blowup is Long.js multiplication's JS-to-Wasm ratio of executed
// arithmetic operations.
func table12Blowup(r *core.Table12Result) float64 {
	var jsTotal, wasmTotal float64
	for _, row := range r.Rows {
		if row.Bench != "multiplication" {
			continue
		}
		if row.Lang == "JS" {
			jsTotal = float64(row.Total)
		} else {
			wasmTotal = float64(row.Total)
		}
	}
	return jsTotal / wasmTotal
}

// BenchmarkFig11FiveNumber regenerates the Appendix B summaries.
func BenchmarkFig11FiveNumber(b *testing.B) {
	opts := benchOpts(b)
	for i := 0; i < b.N; i++ {
		r, err := core.RunOptLevels(opts)
		if err != nil {
			b.Fatal(err)
		}
		var vals []float64
		for _, row := range r.Rows {
			vals = append(vals, row.TimeWasm[ir.Oz])
		}
		fn := harness.Summarize(vals)
		b.ReportMetric(fn.Median, "wasm-Oz/O2-median")
	}
}

// BenchmarkVMThroughput measures real wall-clock interpreter throughput of
// the three engines (engineering sanity, not a paper figure): the Wasm and
// x86 VMs on gemm at M, and the JS engine on AES at XS, Cheerp -O2, on
// chrome-desktop, the cell that leads a cold serve sweep's tail.
func BenchmarkVMThroughput(b *testing.B) {
	bench, err := benchsuite.ByName("gemm")
	if err != nil {
		b.Fatal(err)
	}
	art, err := compiler.Compile(bench.Source, compiler.Options{
		Opt: ir.O2, Defines: bench.Defines(benchsuite.M), ModuleName: "gemm",
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("wasm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := compiler.RunWasm(art, wasmvm.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Steps), "instrs")
		}
	})
	b.Run("x86", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compiler.RunX86(art, codegen.DefaultX86Config()); err != nil {
				b.Fatal(err)
			}
		}
	})
	aes, err := benchsuite.ByName("AES")
	if err != nil {
		b.Fatal(err)
	}
	jsArt, err := compiler.Compile(aes.Source, compiler.Options{
		Opt: ir.O2, Toolchain: compiler.Cheerp, Defines: aes.Defines(benchsuite.XS),
		HeapLimit: aes.HeapLimitBytes(benchsuite.XS), ModuleName: "AES",
		Targets: []compiler.Target{compiler.TargetJS},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("js", func(b *testing.B) {
		b.ReportAllocs()
		cfg := browser.Chrome(browser.Desktop).JS
		var steps uint64
		for i := 0; i < b.N; i++ {
			res, err := compiler.RunJS(jsArt, cfg)
			if err != nil {
				b.Fatal(err)
			}
			steps = res.Steps
		}
		b.ReportMetric(float64(steps), "steps")
		b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msteps/s")
	})
}
