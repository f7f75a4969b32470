package harness

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/faultinject"
	"wasmbench/internal/ir"
	"wasmbench/internal/obsv"
)

// TestFaultSmoke is the CI fault drill (`make faults-smoke`): one
// fixed-seed sweep whose plan hits every non-serve injection point at
// least once. Each cell runs once, and the contract has no exception: a
// fault either leaves the cell's measurement byte-identical to its clean
// run (the engine absorbs it below the result) or fails the cell with an
// error that unwraps to an InjectedError. No result is measured under a
// configuration other than the one its label names, and the same seed
// replays the identical fault counts and outcomes.
func TestFaultSmoke(t *testing.T) {
	chrome := browser.Chrome(browser.Desktop)
	cell := func(name string, sz benchsuite.Size, lang string) Cell {
		b, err := benchsuite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return Cell{Bench: b, Size: sz, Level: ir.O2, Lang: lang, Profile: chrome}
	}
	cells := []Cell{
		cell("atax", benchsuite.S, "wasm"),     // wasm.stall → absorbed (tiers up to AOT at S)
		cell("bicg", benchsuite.XS, "js"),      // js.heap-oom → injected failure
		cell("mvt", benchsuite.XS, "wasm"),     // compiler.pass → injected failure
		cell("gesummv", benchsuite.XS, "wasm"), // harness.worker-panic → injected failure
	}
	rules := []faultinject.Rule{
		{Point: faultinject.WasmStall, Count: 1, Stall: 5 * time.Millisecond, Match: "atax"},
		{Point: faultinject.JSHeapOOM, Count: 1, Match: "bicg"},
		{Point: faultinject.CompilerPass, Count: 1, Match: "mvt"},
		{Point: faultinject.HarnessPanic, Count: 1, Match: "gesummv"},
	}

	clean, _ := RunCellsWith(cells, RunOptions{Workers: 1, VMPool: true})

	type outcome struct {
		counts   map[faultinject.Point]int
		outcomes []string
		results  []CellResult
		metrics  *obsv.RunMetrics
	}
	sweep := func() outcome {
		plan := faultinject.NewPlan(2026, rules...)
		res, m := RunCellsWith(cells, RunOptions{
			Workers: 1, Deadline: time.Minute, Faults: plan,
			VMPool: true, // pooled instances, as benchserve runs them
		})
		outcomes := make([]string, len(res))
		for i, r := range res {
			if r.Err != nil {
				outcomes[i] = "err: " + r.Err.Error()
			} else {
				outcomes[i] = "ok"
			}
		}
		return outcome{counts: plan.Counts(), outcomes: outcomes, results: res, metrics: m}
	}

	o := sweep()

	// Every injection point must have fired at least once. serve.* points
	// live in benchserve's admission path, which a harness sweep never
	// crosses; TestServeFaultDrill (internal/serve) drills those.
	for _, pt := range faultinject.AllPoints {
		if strings.HasPrefix(string(pt), "serve.") {
			continue
		}
		if o.counts[pt] < 1 {
			t.Errorf("injection point %s never fired (counts: %v)", pt, o.counts)
		}
	}

	// A faulted cell is absorbed with its clean-run measurement or fails
	// with an injected error; nothing in between.
	failed := 0
	for i, r := range o.results {
		label := cells[i].Label()
		if r.Err != nil {
			failed++
			if !faultinject.IsInjected(r.Err) {
				t.Errorf("%s: failure is not typed as injected: %v", label, r.Err)
			}
			continue
		}
		if got, want := keyOf(t, r), keyOf(t, clean[i]); got != want {
			t.Errorf("%s: faulted run measured %+v, clean run %+v", label, got, want)
		}
		// The tier split too: a fault that re-routed the run to another
		// tier or dispatcher would move TierUps or the AOT sub-split.
		got, want := r.Meas.Result, clean[i].Meas.Result
		if got.TierUps != want.TierUps || got.WasmStats != want.WasmStats {
			t.Errorf("%s: faulted run tiers %d %+v, clean run %d %+v",
				label, got.TierUps, got.WasmStats, want.TierUps, want.WasmStats)
		}
		// Fidelity: the artifact was built under exactly the configuration
		// the cell's label names.
		opts := r.Art.Opts
		opts.Faults, opts.Instruments = nil, nil
		if !reflect.DeepEqual(opts, cellOptions(cells[i])) {
			t.Errorf("%s: measured under %+v, label names %+v", label, opts, cellOptions(cells[i]))
		}
	}
	if failed == 0 {
		t.Error("no cell failed: the drill no longer exercises the failure path")
	}
	m := o.metrics
	if m.Failed != failed {
		t.Errorf("Failed = %d, results say %d", m.Failed, failed)
	}
	total := 0
	for _, n := range o.counts {
		total += n
	}
	if m.FaultsInjected != total {
		t.Errorf("FaultsInjected = %d, plan log says %d", m.FaultsInjected, total)
	}
	if !strings.Contains(m.Render(), "robustness: ") {
		t.Error("faulted run renders no robustness line")
	}

	// Determinism: a second sweep from the same seed replays identically.
	o2 := sweep()
	if !reflect.DeepEqual(o.counts, o2.counts) {
		t.Errorf("fault counts diverge across identical seeds:\n%v\n%v", o.counts, o2.counts)
	}
	if !reflect.DeepEqual(o.outcomes, o2.outcomes) {
		t.Errorf("outcomes diverge:\n%v\n%v", o.outcomes, o2.outcomes)
	}
	if o.metrics.Failed != o2.metrics.Failed || o.metrics.FaultsInjected != o2.metrics.FaultsInjected {
		t.Errorf("failure accounting diverges: %+v vs %+v", o.metrics, o2.metrics)
	}
	for i, r := range o.results {
		if r.Err == nil && o2.results[i].Err == nil && keyOf(t, r) != keyOf(t, o2.results[i]) {
			t.Errorf("%s: measurement diverges across identical seeds", cells[i].Label())
		}
	}
}
