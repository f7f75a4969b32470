package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/compiler"
	"wasmbench/internal/faultinject"
	"wasmbench/internal/ir"
	"wasmbench/internal/obsv"
)

func resCell(t *testing.T, name string, size benchsuite.Size, lang string) Cell {
	t.Helper()
	b, err := benchsuite.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return Cell{Bench: b, Size: size, Level: ir.O2, Lang: lang, Profile: browser.Chrome(browser.Desktop)}
}

// measKey extracts the deterministic measurement fields the result tables
// are built from (Art and Output are not compared: resumed cells carry
// neither).
type measKey struct {
	ExecMS, MemoryKB float64
	Cycles           float64
	Steps            uint64
	MemoryBytes      uint64
	MemChecksum      uint64
}

func keyOf(t *testing.T, r CellResult) measKey {
	t.Helper()
	if r.Err != nil {
		t.Fatalf("%s: %v", r.Label(), r.Err)
	}
	return measKey{
		ExecMS: r.Meas.ExecMS, MemoryKB: r.Meas.MemoryKB,
		Cycles: r.Meas.Result.Cycles, Steps: r.Meas.Result.Steps,
		MemoryBytes: r.Meas.Result.MemoryBytes, MemChecksum: r.Meas.Result.MemChecksum,
	}
}

// TestZeroFaultByteIdentical proves the inertness guarantee: running with
// no fault plan and running with an armed-but-empty plan produce
// byte-identical traces and identical results, and a run under a
// wall-clock deadline (the guarded path, zero faults) produces the same
// measurement as the plain path with no robustness line in the metrics
// rendering.
func TestZeroFaultByteIdentical(t *testing.T) {
	c := resCell(t, "atax", benchsuite.XS, "wasm")
	art, err := CompileCell(c)
	if err != nil {
		t.Fatal(err)
	}
	runTrace := func(plan *faultinject.Plan) ([]byte, *compiler.Result) {
		tr := &obsv.Collector{}
		cfg := c.Profile.Wasm
		cfg.Tracer = tr
		cfg.Faults = plan
		res, err := compiler.RunWasm(art, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obsv.WriteChromeTrace(&buf, tr.Events(), nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), res
	}
	offTrace, offRes := runTrace(nil)
	emptyTrace, emptyRes := runTrace(faultinject.NewPlan(99)) // armed, no rules
	if !bytes.Equal(offTrace, emptyTrace) {
		t.Error("empty fault plan perturbed the trace bytes")
	}
	if !reflect.DeepEqual(offRes, emptyRes) {
		t.Error("empty fault plan perturbed the result")
	}

	cells := []Cell{c, resCell(t, "atax", benchsuite.XS, "js")}
	plain, _ := RunCellsWith(cells, RunOptions{Workers: 1})
	hard, m := RunCellsWith(cells, RunOptions{Workers: 1, Deadline: time.Minute})
	for i := range cells {
		if keyOf(t, plain[i]) != keyOf(t, hard[i]) {
			t.Errorf("%s: the deadline guard changed the measurement", cells[i].Label())
		}
	}
	if m.FaultsInjected != 0 || m.Failed != 0 {
		t.Errorf("zero-fault run has robustness counters: %+v", m)
	}
	if strings.Contains(m.Render(), "robustness:") {
		t.Error("zero-fault Render emits a robustness line")
	}
	for _, cm := range m.Cells {
		if cm.Status != "ok" || cm.Failed || cm.Resumed {
			t.Errorf("cell %s metric polluted: %+v", cm.Label, cm)
		}
	}
}

// TestWorkerPanicRecovered: an injected worker panic is converted to a
// typed CellResult error rather than crashing the pool.
func TestWorkerPanicRecovered(t *testing.T) {
	c := resCell(t, "atax", benchsuite.XS, "wasm")

	plan := faultinject.NewPlan(11, faultinject.Rule{Point: faultinject.HarnessPanic, Count: 1})
	res, _ := RunCellsWith([]Cell{c}, RunOptions{Workers: 1, Faults: plan})
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "worker panic") {
		t.Fatalf("want worker panic error, got %v", res[0].Err)
	}
	if !faultinject.IsInjected(res[0].Err) {
		t.Error("injected panic should unwrap to InjectedError")
	}
}

// TestDeadlineCancelsStalledCell: a cell wedged in an injected stall is
// abandoned at the wall-clock deadline without leaking its worker
// goroutine — the cancel channel aborts the stall and the buffered result
// channel lets the goroutine exit.
func TestDeadlineCancelsStalledCell(t *testing.T) {
	c := resCell(t, "atax", benchsuite.XS, "wasm")
	base := runtime.NumGoroutine()

	plan := faultinject.NewPlan(5, faultinject.Rule{
		Point: faultinject.WasmStall, Count: 1, Stall: time.Hour,
	})
	start := time.Now()
	res, m := RunCellsWith([]Cell{c}, RunOptions{
		Workers: 1, Deadline: 100 * time.Millisecond, Faults: plan,
	})
	if !errors.Is(res[0].Err, ErrCellDeadline) {
		t.Fatalf("want ErrCellDeadline, got %v", res[0].Err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline did not bound the run: %v", elapsed)
	}
	if !m.Cells[0].Failed {
		t.Error("deadline cell not marked failed")
	}
	// The abandoned goroutine must exit once its stall is cancelled.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutine leak: %d running, baseline %d", n, base)
	}
}

// TestContextCancelAbandonsRun: canceling RunOptions.Context mid-run
// abandons the stalled in-flight cell promptly with ErrCellCanceled (not
// ErrCellDeadline — no timeout fired), fails pending cells fast, and
// leaks no goroutines once the injected stall is aborted.
func TestContextCancelAbandonsRun(t *testing.T) {
	cells := []Cell{
		resCell(t, "atax", benchsuite.XS, "wasm"),
		resCell(t, "bicg", benchsuite.XS, "wasm"),
	}
	base := runtime.NumGoroutine()

	plan := faultinject.NewPlan(5, faultinject.Rule{
		Point: faultinject.WasmStall, Count: len(cells), Stall: time.Hour,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, _ := RunCellsWith(cells, RunOptions{Workers: 1, Context: ctx, Faults: plan})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancel did not bound the run: %v", elapsed)
	}
	for i, r := range res {
		if !errors.Is(r.Err, ErrCellCanceled) {
			t.Errorf("cell %d: want ErrCellCanceled, got %v", i, r.Err)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("cell %d: error chain should match context.Canceled: %v", i, r.Err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutine leak: %d running, baseline %d", n, base)
	}
}

// TestSameSeedSameSequences: two fresh plans with the same seed drive a
// sweep to identical fault records, identical outcomes, and identical
// robustness counters.
func TestSameSeedSameSequences(t *testing.T) {
	cells := []Cell{
		resCell(t, "atax", benchsuite.XS, "wasm"),
		resCell(t, "atax", benchsuite.XS, "js"),
		resCell(t, "bicg", benchsuite.XS, "wasm"),
	}
	rules := []faultinject.Rule{
		{Point: faultinject.CompilerPass, Prob: 0.5},
		{Point: faultinject.HarnessPanic, Prob: 0.3},
	}
	run := func() ([]faultinject.Record, []string, *obsv.RunMetrics) {
		plan := faultinject.NewPlan(42, rules...)
		res, m := RunCellsWith(cells, RunOptions{Workers: 1, Faults: plan})
		outcomes := make([]string, len(res))
		for i, r := range res {
			if r.Err != nil {
				outcomes[i] = "err:" + r.Err.Error()
			} else {
				outcomes[i] = fmt.Sprintf("%s/%+v", r.Label(), keyOf(t, r))
			}
		}
		return plan.Records(), outcomes, m
	}
	rec1, out1, m1 := run()
	rec2, out2, m2 := run()
	if !reflect.DeepEqual(rec1, rec2) {
		t.Errorf("fault records diverge:\n%v\n%v", rec1, rec2)
	}
	if !reflect.DeepEqual(out1, out2) {
		t.Errorf("outcomes diverge:\n%v\n%v", out1, out2)
	}
	if m1.Failed != m2.Failed || m1.FaultsInjected != m2.FaultsInjected {
		t.Errorf("counters diverge: %+v vs %+v", m1, m2)
	}
}

// TestCheckpointResume: a faulty run records only its successes; a resumed
// run restores them without re-execution and completes the rest, matching
// the clean-run table. Stale fingerprints and corrupt tail lines are
// ignored.
func TestCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.jsonl")
	cells := []Cell{
		resCell(t, "atax", benchsuite.XS, "wasm"),
		resCell(t, "atax", benchsuite.XS, "js"),
	}
	clean := RunCells(cells)
	want := []measKey{keyOf(t, clean[0]), keyOf(t, clean[1])}

	// Run 1: the JS cell fails persistently; only the wasm cell checkpoints.
	cp1, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan(1, faultinject.Rule{
		Point: faultinject.CompilerPass, Prob: 1, Match: "/js/",
	})
	res1, _ := RunCellsWith(cells, RunOptions{Workers: 1, Faults: plan, Checkpoint: cp1})
	if res1[0].Err != nil {
		t.Fatalf("wasm cell failed: %v", res1[0].Err)
	}
	if res1[1].Err == nil {
		t.Fatal("js cell should have failed")
	}
	if cp1.Len() != 1 {
		t.Fatalf("checkpoint recorded %d cells, want 1", cp1.Len())
	}
	if err := cp1.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn write from a crash: garbage plus a truncated record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("not json\n{\"label\":\"trunc")
	f.Close()

	// Run 2: resume — the wasm cell restores, the js cell re-runs clean.
	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Len() != 1 {
		t.Fatalf("reloaded %d cells, want 1 (corrupt tail must be skipped)", cp2.Len())
	}
	res2, m2 := RunCellsWith(cells, RunOptions{Workers: 1, Checkpoint: cp2})
	for i := range cells {
		if got := keyOf(t, res2[i]); got != want[i] {
			t.Errorf("%s: resumed table differs: %+v vs %+v", cells[i].Label(), got, want[i])
		}
	}
	if !m2.Cells[0].Resumed || m2.Cells[0].Status != "resumed" {
		t.Errorf("wasm cell should be resumed: %+v", m2.Cells[0])
	}
	if m2.Cells[1].Resumed {
		t.Error("js cell should have re-run, not resumed")
	}
	if !strings.Contains(m2.Render(), "resumed") {
		t.Error("Render missing resumed marker")
	}

	// A changed configuration invalidates the record via the fingerprint.
	stale := cells[0]
	stale.Level = ir.O0
	if _, ok := cp2.Lookup(stale); ok {
		t.Error("stale fingerprint must not resume")
	}
}

// TestCheckpointResumesBothToolchains: the Cheerp and Emscripten builds
// of one kernel are two checkpoint records, so a resumed run restores
// both instead of re-measuring one of them.
func TestCheckpointResumesBothToolchains(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.jsonl")
	ch := resCell(t, "atax", benchsuite.XS, "wasm")
	em := ch
	em.Toolchain = compiler.Emscripten
	cells := []Cell{ch, em}

	cp1, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	res1, _ := RunCellsWith(cells, RunOptions{Workers: 1, Checkpoint: cp1})
	if err := FirstError(res1); err != nil {
		t.Fatal(err)
	}
	if err := cp1.Close(); err != nil {
		t.Fatal(err)
	}

	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Len() != 2 {
		t.Fatalf("reloaded %d records, want 2 (one per toolchain)", cp2.Len())
	}
	res2, m2 := RunCellsWith(cells, RunOptions{Workers: 1, Checkpoint: cp2})
	for i, c := range cells {
		if !m2.Cells[i].Resumed {
			t.Errorf("%s: re-measured, want resumed", c.Label())
		}
		if got, want := keyOf(t, res2[i]), keyOf(t, res1[i]); got != want {
			t.Errorf("%s: resumed %+v, measured %+v", c.Label(), got, want)
		}
	}
}
