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
// fixed-seed sweep whose plan hits every injection point at least once,
// with the retry/degrade/quarantine machinery absorbing all of it except
// one deliberately unrecoverable benchmark. The run is deterministic: the
// same seed replays the identical fault counts, outcomes, and robustness
// accounting.
func TestFaultSmoke(t *testing.T) {
	mkCells := func() []Cell {
		chrome := browser.Chrome(browser.Desktop)
		cell := func(name string, sz benchsuite.Size, lang string) Cell {
			b, err := benchsuite.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			return Cell{Bench: b, Size: sz, Level: ir.O2, Lang: lang, Profile: chrome}
		}
		return []Cell{
			cell("atax", benchsuite.XS, "wasm"),    // wasm.stall
			cell("atax", benchsuite.S, "js"),       // js.jit-compile (hot at S)
			cell("bicg", benchsuite.XS, "js"),      // js.heap-oom → retry
			cell("gemm", benchsuite.S, "wasm"),     // wasm.grow-deny (gemm/S grows)
			cell("2mm", benchsuite.S, "wasm"),      // wasm.aot-translate → stack fallback
			cell("mvt", benchsuite.XS, "wasm"),     // compiler.pass → retry+degrade
			cell("trmm", benchsuite.XS, "wasm"),    // compiler.cache → retry
			cell("gesummv", benchsuite.XS, "wasm"), // harness.worker-panic → retry
			cell("syrk", benchsuite.XS, "wasm"),    // wasm.snapshot-restore → silent cold fallback
			cell("doitgen", benchsuite.XS, "wasm"), // unrecoverable → fails
			cell("doitgen", benchsuite.S, "wasm"),  // → quarantined
		}
	}
	rules := []faultinject.Rule{
		{Point: faultinject.WasmStall, Count: 1, Stall: 5 * time.Millisecond, Match: "atax"},
		{Point: faultinject.JSJITCompile, Count: 1, Match: "atax"},
		{Point: faultinject.JSHeapOOM, Count: 1, Match: "bicg"},
		{Point: faultinject.WasmGrowDeny, Count: 1, Match: "gemm"},
		// The denied optimizing-tier translation leaves the function on the
		// stack loop, so the cell still succeeds and its metrics are
		// untouched — only the fault counter records the firing.
		{Point: faultinject.WasmAOTTranslate, Count: 1, Match: "2mm"},
		{Point: faultinject.CompilerPass, Count: 1, Match: "mvt"},
		{Point: faultinject.CompilerCache, Count: 1, Match: "trmm"},
		{Point: faultinject.HarnessPanic, Count: 1, Match: "gesummv"},
		// Pool-checkout denial is absorbed below the retry machinery: the
		// measurement silently instantiates cold, so the cell succeeds on its
		// first attempt with byte-identical metrics.
		{Point: faultinject.WasmSnapshotRestore, Count: 1, Match: "syrk"},
		{Point: faultinject.CompilerPass, Prob: 1, Match: "doitgen"}, // every attempt fails
	}

	type outcome struct {
		counts  map[faultinject.Point]int
		failed  []string
		metrics *obsv.RunMetrics
	}
	sweep := func() outcome {
		plan := faultinject.NewPlan(2026, rules...)
		cells := mkCells()
		res, m := RunCellsWith(cells, RunOptions{
			Workers: 1, Retries: 2, DegradeOnRetry: true,
			QuarantineAfter: 1, Deadline: time.Minute, Faults: plan,
			VMPool: true, // arms the wasm.snapshot-restore injection site
		})
		var failed []string
		for i, r := range res {
			if r.Err != nil {
				failed = append(failed, cells[i].Label()+": "+r.Err.Error())
			}
		}
		return outcome{counts: plan.Counts(), failed: failed, metrics: m}
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

	// Only the unrecoverable benchmark fails: once organically (retries
	// exhausted), once by quarantine.
	if len(o.failed) != 2 {
		t.Fatalf("failed cells = %v, want exactly the doitgen pair", o.failed)
	}
	for _, f := range o.failed {
		if !strings.Contains(f, "doitgen") {
			t.Errorf("unexpected casualty: %s", f)
		}
	}
	if !strings.Contains(o.failed[1], ErrQuarantined.Error()) {
		t.Errorf("second doitgen cell should be quarantined: %s", o.failed[1])
	}

	// Robustness accounting: the metrics aggregate must agree with the
	// per-cell records and the plan's own firing log.
	m := o.metrics
	var retries, degraded, quarantined int
	for _, cm := range m.Cells {
		if cm.Attempts > 1 {
			retries += cm.Attempts - 1
		}
		if cm.Degraded != "" {
			degraded++
		}
		if cm.Quarantined {
			quarantined++
		}
	}
	if m.Retries != retries || m.Degraded != degraded || m.Quarantined != quarantined {
		t.Errorf("aggregate counters disagree with cells: %+v vs (%d,%d,%d)",
			m, retries, degraded, quarantined)
	}
	if m.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", m.Quarantined)
	}
	// Retried-and-recovered cells: bicg (OOM), mvt (pass), trmm (cache),
	// gesummv (panic) each took at least one retry; the recovered ones that
	// went through DegradeOnRetry are recorded as degraded.
	if m.Retries < 4 {
		t.Errorf("Retries = %d, want >= 4", m.Retries)
	}
	if m.Degraded < 3 {
		t.Errorf("Degraded = %d, want >= 3", m.Degraded)
	}
	total := 0
	for _, n := range o.counts {
		total += n
	}
	if m.FaultsInjected != total {
		t.Errorf("FaultsInjected = %d, plan log says %d", m.FaultsInjected, total)
	}

	// Determinism: a second sweep from the same seed replays identically.
	o2 := sweep()
	if !reflect.DeepEqual(o.counts, o2.counts) {
		t.Errorf("fault counts diverge across identical seeds:\n%v\n%v", o.counts, o2.counts)
	}
	if !reflect.DeepEqual(o.failed, o2.failed) {
		t.Errorf("failure sets diverge:\n%v\n%v", o.failed, o2.failed)
	}
	if o.metrics.Retries != o2.metrics.Retries || o.metrics.Degraded != o2.metrics.Degraded ||
		o.metrics.Quarantined != o2.metrics.Quarantined ||
		o.metrics.FaultsInjected != o2.metrics.FaultsInjected {
		t.Errorf("robustness counters diverge: %+v vs %+v", o.metrics, o2.metrics)
	}
}
