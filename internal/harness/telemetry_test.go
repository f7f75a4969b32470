package harness

import (
	"runtime"
	"testing"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/ir"
	"wasmbench/internal/telemetry"
)

func teleCells(t *testing.T) []Cell {
	t.Helper()
	b, err := benchsuite.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	return []Cell{
		{Bench: b, Size: benchsuite.XS, Level: ir.O2, Lang: "wasm", Profile: browser.Chrome(browser.Desktop)},
		{Bench: b, Size: benchsuite.XS, Level: ir.O2, Lang: "js", Profile: browser.Chrome(browser.Desktop)},
	}
}

// TestTelemetryByteIdentity is the zero-perturbation contract: attaching a
// telemetry hub to a run must not change any virtual metric. Instruments
// only mirror what the VMs already count — they never feed the clock.
func TestTelemetryByteIdentity(t *testing.T) {
	base, _ := RunCellsWith(teleCells(t), RunOptions{Workers: 1})
	hub := telemetry.NewHub(256)
	instrumented, _ := RunCellsWith(teleCells(t), RunOptions{Workers: 1, Telemetry: hub})

	if len(base) != len(instrumented) {
		t.Fatalf("result count %d vs %d", len(base), len(instrumented))
	}
	for i := range base {
		a, b := base[i], instrumented[i]
		if a.Err != nil || b.Err != nil {
			t.Fatalf("cell %d errors: %v / %v", i, a.Err, b.Err)
		}
		if a.Meas.Result.Cycles != b.Meas.Result.Cycles {
			t.Errorf("cell %d cycles: %v without telemetry, %v with",
				i, a.Meas.Result.Cycles, b.Meas.Result.Cycles)
		}
		if a.Meas.Result.Steps != b.Meas.Result.Steps {
			t.Errorf("cell %d steps: %d without telemetry, %d with",
				i, a.Meas.Result.Steps, b.Meas.Result.Steps)
		}
		if a.Meas.Result.MemoryBytes != b.Meas.Result.MemoryBytes {
			t.Errorf("cell %d memory: %d without telemetry, %d with",
				i, a.Meas.Result.MemoryBytes, b.Meas.Result.MemoryBytes)
		}
	}
}

// TestTelemetrySweepState verifies the hub reflects the run that just
// completed: sweep state accounts for every cell and the instruments saw
// the work the harness reports.
func TestTelemetrySweepState(t *testing.T) {
	hub := telemetry.NewHub(256)
	cells := teleCells(t)
	// VM instruments attach at the browser profile (the harness only owns
	// its own layer); this mirrors what benchtab -telemetry does.
	for _, c := range cells {
		c.Profile.SetInstruments(hub.Registry())
	}
	results, _ := RunCellsWith(cells, RunOptions{Workers: 2, Telemetry: hub})
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	fn := hub.Provider("cells")
	if fn == nil {
		t.Fatal("run did not publish the cells provider")
	}
	state, ok := fn().(RunState)
	if !ok {
		t.Fatalf("cells provider returned %T", fn())
	}
	if state.Total != 2 || state.Done != 2 || state.Failed != 0 {
		t.Fatalf("sweep state = %+v", state)
	}
	for _, c := range state.Cells {
		if c.Status != "ok" || c.Wall <= 0 {
			t.Fatalf("cell state = %+v", c)
		}
	}

	snap := hub.Registry().Snapshot()
	byName := map[string]telemetry.SnapshotMetric{}
	for _, m := range snap.Metrics {
		byName[m.Name] = m
	}
	if v := byName["harness_cells_done_total"].Value; v != 2 {
		t.Errorf("harness_cells_done_total = %v, want 2", v)
	}
	if byName["wasm_steps_total"].Value <= 0 {
		t.Error("wasm_steps_total not populated")
	}
	if byName["js_steps_total"].Value <= 0 {
		t.Error("js_steps_total not populated")
	}
	if byName["compiler_compiles_total"].Value <= 0 {
		t.Error("compiler_compiles_total not populated")
	}
	if m := byName["harness_cell_wall_seconds"]; m.Count != 2 {
		t.Errorf("harness_cell_wall_seconds count = %d, want 2", m.Count)
	}
	if byName["harness_queue_depth"].Value != 0 {
		t.Errorf("queue depth after run = %v, want 0", byName["harness_queue_depth"].Value)
	}
}

// TestTelemetryCellsConcurrent scrapes the "cells" provider while the
// workers write the run record (data-race coverage via -race): every
// snapshot accounts for every cell, and the last one agrees with the
// metrics the run returns.
func TestTelemetryCellsConcurrent(t *testing.T) {
	hub := telemetry.NewHub(256)
	cells := append(teleCells(t), teleCells(t)...)
	stop := make(chan struct{})
	scrapes := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				scrapes <- n
				return
			default:
			}
			if fn := hub.Provider("cells"); fn != nil {
				s := fn().(RunState)
				if s.Total != len(cells) || s.Done+s.Running+s.QueueDepth != s.Total {
					t.Errorf("scrape %d: total=%d done=%d running=%d queued=%d",
						n, s.Total, s.Done, s.Running, s.QueueDepth)
				}
				n++
			}
			runtime.Gosched()
		}
	}()
	_, m := RunCellsWith(cells, RunOptions{Workers: 2, Telemetry: hub})
	close(stop)
	if n := <-scrapes; n == 0 {
		t.Log("no scrape landed during the run")
	}
	final := hub.Provider("cells")().(RunState)
	if final.Done != len(cells) || final.Running != 0 || final.QueueDepth != 0 {
		t.Fatalf("final state: done=%d running=%d queued=%d", final.Done, final.Running, final.QueueDepth)
	}
	if m.Done != final.Done || m.Total != final.Total || m.Failed != final.Failed {
		t.Fatalf("returned metrics %d/%d/%d, provider %d/%d/%d (done/total/failed)",
			m.Done, m.Total, m.Failed, final.Done, final.Total, final.Failed)
	}
	for i, c := range final.Cells {
		if c.Label != m.Cells[i].Label || c.Status != m.Cells[i].Status {
			t.Fatalf("cell %d: provider %s/%s, returned %s/%s",
				i, c.Label, c.Status, m.Cells[i].Label, m.Cells[i].Status)
		}
	}
}

// TestTelemetryFailureDump checks that a failing cell freezes a flight
// dump with the failure's context.
func TestTelemetryFailureDump(t *testing.T) {
	b, err := benchsuite.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub(256)
	cells := []Cell{
		// A step limit far below the benchmark's work makes the cell fail
		// deterministically.
		{Bench: b, Size: benchsuite.XS, Level: ir.O2, Lang: "wasm", Profile: browser.Chrome(browser.Desktop)},
	}
	results, _ := RunCellsWith(cells, RunOptions{Workers: 1, Telemetry: hub, StepLimit: 10})
	if results[0].Err == nil {
		t.Fatal("step-limited cell unexpectedly succeeded")
	}
	dump, n := hub.LastDump()
	if n != 1 || dump == nil {
		t.Fatalf("dumps = %d, want exactly 1", n)
	}
	if dump.Reason == "" {
		t.Fatal("dump has no reason")
	}
}
