package harness

import (
	"strings"
	"testing"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/ir"
	"wasmbench/internal/telemetry"
)

// poolSmokeCells is the pooled-harness matrix: one benchmark on every
// profile (six configs cloned from one artifact's snapshot) plus a second
// benchmark (a second pool in the set).
func poolSmokeCells(t testing.TB) []Cell {
	var cells []Cell
	for _, name := range []string{"gemm", "atax"} {
		b, err := benchsuite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range browser.AllProfiles() {
			cells = append(cells, Cell{
				Bench: b, Size: benchsuite.XS, Level: ir.O2, Lang: "wasm", Profile: p,
			})
		}
	}
	return cells
}

// TestPoolSmoke is the CI pool drill (`make pool-smoke`): a sweep on a
// shared pool set must produce byte-identical virtual metrics to the cold
// sweep — cycles, steps, memory, checksum, exit, output — while the pools
// actually serve checkouts (every wasm cell pooled: one capture per
// artifact, clones for the rest, every instance handed back).
func TestPoolSmoke(t *testing.T) {
	cells := poolSmokeCells(t)
	cold, _ := RunCellsWith(cells, RunOptions{Workers: 2})
	if err := FirstError(cold); err != nil {
		t.Fatal(err)
	}
	pooled, m := RunCellsWith(cells, RunOptions{Workers: 2, SharedVMPools: NewVMPools(nil, nil)})
	if err := FirstError(pooled); err != nil {
		t.Fatal(err)
	}

	for i := range cells {
		c, p := cold[i].Meas.Result, pooled[i].Meas.Result
		label := cells[i].Label()
		if c.Cycles != p.Cycles {
			t.Errorf("%s: cycles %v (cold) != %v (pooled)", label, c.Cycles, p.Cycles)
		}
		if c.Steps != p.Steps {
			t.Errorf("%s: steps %d != %d", label, c.Steps, p.Steps)
		}
		if c.MemChecksum != p.MemChecksum {
			t.Errorf("%s: mem checksum %#x != %#x", label, c.MemChecksum, p.MemChecksum)
		}
		if c.MemoryBytes != p.MemoryBytes {
			t.Errorf("%s: memory %d != %d", label, c.MemoryBytes, p.MemoryBytes)
		}
		if c.Exit != p.Exit {
			t.Errorf("%s: exit %d != %d", label, c.Exit, p.Exit)
		}
		if c.WasmStats != p.WasmStats {
			t.Errorf("%s: stats diverge:\ncold:   %+v\npooled: %+v", label, c.WasmStats, p.WasmStats)
		}
		if cold[i].Meas.ExecMS != pooled[i].Meas.ExecMS {
			t.Errorf("%s: ExecMS %v != %v", label, cold[i].Meas.ExecMS, pooled[i].Meas.ExecMS)
		}
		if !p.VMPooled {
			t.Errorf("%s: pooled run not served by the pool", label)
		}
	}

	if !m.VMPoolEnabled {
		t.Error("VMPoolEnabled not set on pooled run metrics")
	}
	if m.VMPoolMisses != 2 || m.VMPoolHits != len(cells)-2 {
		t.Errorf("pool checkouts: %d hits, %d misses; want one capture per artifact and %d clones",
			m.VMPoolHits, m.VMPoolMisses, len(cells)-2)
	}
	if m.VMPoolRecycles != len(cells) {
		t.Errorf("%d instances handed back, want %d", m.VMPoolRecycles, len(cells))
	}

	// The cold run's metrics must not mention the pool at all.
	cold2, mc := RunCellsWith(cells[:1], RunOptions{Workers: 1})
	if err := FirstError(cold2); err != nil {
		t.Fatal(err)
	}
	if mc.VMPoolEnabled || mc.VMPoolHits != 0 || mc.VMPoolRecycles != 0 {
		t.Errorf("pool counters leaked into a pool-less run: %+v", mc)
	}
	if cold2[0].Meas.Result.VMPooled {
		t.Error("pool-less run reported VMPooled")
	}
}

// TestPoolSharedAcrossRuns: a shared pool set carries its snapshots
// between RunCellsWith invocations (the steady-state service scenario), and
// the second run's counters are deltas, not lifetime totals.
func TestPoolSharedAcrossRuns(t *testing.T) {
	cells := poolSmokeCells(t)
	opt := RunOptions{Workers: 2, SharedVMPools: NewVMPools(nil, nil)}
	res1, m1 := RunCellsWith(cells, opt)
	if err := FirstError(res1); err != nil {
		t.Fatal(err)
	}
	res2, m2 := RunCellsWith(cells, opt)
	if err := FirstError(res2); err != nil {
		t.Fatal(err)
	}
	if m1.VMPoolMisses != 2 || m1.VMPoolHits != len(cells)-2 {
		t.Errorf("first run: hits %d misses %d, want %d/2", m1.VMPoolHits, m1.VMPoolMisses, len(cells)-2)
	}
	if m2.VMPoolHits != len(cells) || m2.VMPoolMisses != 0 {
		t.Errorf("second run: hits %d misses %d, want %d/0 (delta accounting or snapshot sharing broken)",
			m2.VMPoolHits, m2.VMPoolMisses, len(cells))
	}
	for i := range cells {
		if res1[i].Meas.Result.Cycles != res2[i].Meas.Result.Cycles {
			t.Errorf("%s: cycles differ across shared-pool runs", cells[i].Label())
		}
	}
}

// TestPoolTelemetry: a pool set built on a hub's registry publishes the
// wasm_vm_pool_* counters, and a run on it with the hub fills the
// /debug/cells vm_pool block.
func TestPoolTelemetry(t *testing.T) {
	hub := telemetry.NewHub(256)
	cells := poolSmokeCells(t)[:6]
	pools := NewVMPools(hub.Registry(), nil)
	res, _ := RunCellsWith(cells, RunOptions{Workers: 2, SharedVMPools: pools, Telemetry: hub})
	if err := FirstError(res); err != nil {
		t.Fatal(err)
	}
	if hits := hub.Registry().Counter("wasm_vm_pool_hits_total", "").Value(); hits != 5 {
		t.Errorf("wasm_vm_pool_hits_total = %v, want 5 clones", hits)
	}
	st, ok := hub.Provider("cells")().(RunState)
	if !ok || st.VMPool == nil || st.VMPool.Misses != 1 || st.VMPools != 1 {
		t.Errorf("cells provider vm_pool block: %+v (ok=%v)", st.VMPool, ok)
	}
	var sb strings.Builder
	if err := hub.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	dump := sb.String()
	for _, want := range []string{"wasm_vm_pool_hits_total", "wasm_vm_pool_misses_total", "wasm_vm_pool_recycles_total"} {
		if !strings.Contains(dump, want) {
			t.Errorf("registry missing %s:\n%s", want, dump)
		}
	}
}
