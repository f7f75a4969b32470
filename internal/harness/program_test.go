package harness

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/compiler"
	"wasmbench/internal/ir"
	"wasmbench/internal/jsvm"
	"wasmbench/internal/obsv"
)

// programCells returns two cells outside the kernel grid: Table 9's
// hand-written 3mm, and the first worker shard of Table 10's FFmpeg Wasm
// side, as core builds them.
func programCells(t *testing.T) []Cell {
	t.Helper()
	chrome := browser.Chrome(browser.Desktop)
	var manual, ffmpeg *benchsuite.Benchmark
	for _, m := range benchsuite.ManualBenchmarks() {
		if m.Name == "3mm" {
			manual = m.Program()
		}
	}
	for _, op := range benchsuite.RealWorld() {
		if op.App == "FFmpeg" {
			ffmpeg = op.WasmPrograms()[0]
		}
	}
	if manual == nil || ffmpeg == nil {
		t.Fatal("benchsuite lost 3mm or FFmpeg")
	}
	return []Cell{
		{Bench: manual, Lang: "js", Profile: chrome},
		{Bench: ffmpeg, Size: benchsuite.M, Level: ir.Oz, Lang: "wasm", Profile: chrome, Toolchain: compiler.Emscripten},
	}
}

// TestProgramCells: a hand-written JS program and an FFmpeg worker shard
// run through RunCellsWith like kernels do. Their labels reach the run's
// metrics and trace, their measurements equal a direct measurement (the
// JS source as a JS-only artifact, the shard compiled with its frame range
// and module name), and a deadline bounds them.
func TestProgramCells(t *testing.T) {
	cells := programCells(t)
	want := []string{"manual/3mm/js@chrome-desktop", "FFmpeg/mp4 to avi/w0/M/wasm/-Oz/emscripten@chrome-desktop"}
	coll := &obsv.Collector{}
	res, m := RunCellsWith(cells, RunOptions{Workers: 2, Tracer: coll})
	if err := FirstError(res); err != nil {
		t.Fatal(err)
	}
	starts := map[string]bool{}
	for _, e := range obsv.FilterKinds(coll.Events(), obsv.KindCellStart) {
		starts[e.Name] = true
	}
	dones := map[string]bool{}
	for _, e := range obsv.FilterKinds(coll.Events(), obsv.KindCellDone) {
		dones[e.Name] = true
	}
	for i, l := range want {
		if got := cells[i].Label(); got != l {
			t.Errorf("cell %d label %q, want %q", i, got, l)
		}
		if m.Cells[i].Label != l || m.Cells[i].Failed {
			t.Errorf("RunMetrics cell %d: %+v, want label %q", i, m.Cells[i], l)
		}
		if !starts[l] || !dones[l] {
			t.Errorf("%s: cell-start %v, cell-done %v in the trace", l, starts[l], dones[l])
		}
	}
	if m.Cells[0].CacheHit || m.CacheMisses != 1 {
		t.Errorf("the hand-written cell went through the compile cache: %+v, %d misses", m.Cells[0], m.CacheMisses)
	}

	chrome := cells[0].Profile
	js, err := chrome.MeasureJS(&compiler.Artifact{JS: cells[0].Bench.JS})
	if err != nil {
		t.Fatal(err)
	}
	b := cells[1].Bench
	art, err := compiler.Compile(b.Source, compiler.Options{Opt: ir.Oz, Toolchain: compiler.Emscripten,
		Defines: b.Defines(benchsuite.M), ModuleName: "ffmpeg-w0", Targets: []compiler.Target{compiler.TargetWasm}})
	if err != nil {
		t.Fatal(err)
	}
	wasm, err := chrome.MeasureWasm(art)
	if err != nil {
		t.Fatal(err)
	}
	for i, direct := range []*browser.Measurement{js, wasm} {
		if !reflect.DeepEqual(res[i].Meas, direct) {
			t.Errorf("%s: harness measured %+v, direct %+v", want[i], *res[i].Meas, *direct)
		}
	}
	if js.Result.JSArith == (jsvm.ArithCounts{}) {
		t.Error("the JS measurement carries no operator counts")
	}

	base := runtime.NumGoroutine()
	res, m = RunCellsWith(cells, RunOptions{Workers: 2, Deadline: time.Millisecond})
	for i, r := range res {
		if !errors.Is(r.Err, ErrCellDeadline) || !m.Cells[i].Failed {
			t.Errorf("%s under a 1 ms deadline: %v", want[i], r.Err)
		}
	}
	// The abandoned attempts run to the end of their programs, then exit.
	deadline := time.Now().Add(time.Minute)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutine leak: %d running, baseline %d", n, base)
	}
}
