package harness

import (
	"math"
	"sync"
	"testing"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/faultinject"
	"wasmbench/internal/ir"
)

func mustBench(t *testing.T, name string) *benchsuite.Benchmark {
	t.Helper()
	b, err := benchsuite.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// profileGrid returns one cell per profile for the same (bench, size, opt)
// point — the compile-once/measure-many shape the cache exists for.
func profileGrid(t *testing.T, name string, profiles []*browser.Profile) []Cell {
	t.Helper()
	b := mustBench(t, name)
	cells := make([]Cell, 0, len(profiles))
	for _, p := range profiles {
		cells = append(cells, Cell{
			Bench: b, Size: benchsuite.XS, Level: ir.O2, Lang: "wasm", Profile: p,
		})
	}
	return cells
}

func TestFingerprintStability(t *testing.T) {
	cells := profileGrid(t, "atax", browser.AllProfiles())
	fp := cells[0].Fingerprint()
	if fp == "" {
		t.Fatal("empty fingerprint")
	}
	for _, c := range cells[1:] {
		// Profiles don't feed the compiler, so the whole grid shares a key.
		if got := c.Fingerprint(); got != fp {
			t.Errorf("%s: fingerprint %s != %s", c.Label(), got, fp)
		}
	}
	other := Cell{Bench: mustBench(t, "atax"), Size: benchsuite.S, Level: ir.O2,
		Lang: "wasm", Profile: browser.Chrome(browser.Desktop)}
	if other.Fingerprint() == fp {
		t.Error("different size classes must not share a fingerprint")
	}
	o0 := cells[0]
	o0.Level = ir.O0
	if o0.Fingerprint() == fp {
		t.Error("different opt levels must not share a fingerprint")
	}
}

func TestArtifactCacheSingleflight(t *testing.T) {
	cells := profileGrid(t, "atax", browser.AllProfiles())
	ac := NewArtifactCache()
	var wg sync.WaitGroup
	got := make([]struct {
		art any
		hit bool
		err error
	}, len(cells))
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, hit, err := ac.CompileCell(cells[i])
			got[i].art, got[i].hit, got[i].err = a, hit, err
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i].err != nil {
			t.Fatalf("cell %d: %v", i, got[i].err)
		}
		if got[i].art != got[0].art {
			t.Errorf("cell %d compiled a distinct artifact", i)
		}
	}
	s := ac.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 compile for %d concurrent lookups", s.Misses, len(cells))
	}
	if s.Hits+s.DedupWaits != len(cells)-1 {
		t.Errorf("hits+dedupWaits = %d+%d, want %d", s.Hits, s.DedupWaits, len(cells)-1)
	}
	if s.Lookups() != len(cells) {
		t.Errorf("lookups = %d, want %d", s.Lookups(), len(cells))
	}
	if ac.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", ac.Len())
	}
	hits := 0
	for i := range got {
		if got[i].hit {
			hits++
		}
	}
	if hits != len(cells)-1 {
		t.Errorf("hit flags = %d, want %d", hits, len(cells)-1)
	}
}

func TestArtifactCacheCachesErrors(t *testing.T) {
	bad := &benchsuite.Benchmark{
		Name:   "bad",
		Source: "int main( {", // parse error
		Sizes:  map[benchsuite.Size]benchsuite.SizeSpec{benchsuite.XS: {}},
	}
	c := Cell{Bench: bad, Size: benchsuite.XS, Level: ir.O2, Lang: "wasm",
		Profile: browser.Chrome(browser.Desktop)}
	ac := NewArtifactCache()
	_, hit1, err1 := ac.CompileCell(c)
	_, hit2, err2 := ac.CompileCell(c)
	if err1 == nil || err2 == nil {
		t.Fatalf("expected compile errors, got %v / %v", err1, err2)
	}
	if hit1 || !hit2 {
		t.Errorf("hit flags = %v, %v; want false, true", hit1, hit2)
	}
	if err1.Error() != err2.Error() {
		t.Errorf("replayed error differs: %q vs %q", err1, err2)
	}
	if s := ac.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss + 1 hit", s)
	}

	// An injected failure is never cached: the next lookup (a later serve
	// request sharing the cache) compiles again and succeeds.
	good := Cell{Bench: mustBench(t, "atax"), Size: benchsuite.XS, Level: ir.O2,
		Lang: "wasm", Profile: browser.Chrome(browser.Desktop)}
	plan := faultinject.NewPlan(7, faultinject.Rule{Point: faultinject.CompilerPass, Count: 1})
	if _, _, err := ac.compileCell(good, plan); !faultinject.IsInjected(err) {
		t.Fatalf("want injected compile failure, got %v", err)
	}
	if art, hit, err := ac.compileCell(good, plan); err != nil || hit || art == nil {
		t.Errorf("after an injected failure: art %v, hit %v, err %v; want a fresh compile", art != nil, hit, err)
	}
}

// TestCacheMeasurementEquivalence is the acceptance check: the same grid
// measured with the cache on and off yields identical Measurements —
// virtual time, memory, and program output are all byte-for-byte equal.
func TestCacheMeasurementEquivalence(t *testing.T) {
	profiles := browser.AllProfiles() // 6 profiles ≥ the required 3
	cells := profileGrid(t, "atax", profiles)
	cached, cm := RunCellsWith(cells, RunOptions{Workers: 2})
	uncached, um := RunCellsWith(cells, RunOptions{Workers: 2, DisableCache: true})
	if err := FirstError(cached); err != nil {
		t.Fatal(err)
	}
	if err := FirstError(uncached); err != nil {
		t.Fatal(err)
	}
	if !cm.CacheEnabled || um.CacheEnabled {
		t.Fatalf("CacheEnabled: cached=%v uncached=%v", cm.CacheEnabled, um.CacheEnabled)
	}
	if cm.CacheMisses != 1 || cm.CacheHits+cm.CacheDedupWaits != len(cells)-1 {
		t.Errorf("cached run counters: %d misses, %d hits, %d dedup-waits",
			cm.CacheMisses, cm.CacheHits, cm.CacheDedupWaits)
	}
	if um.CacheHits+um.CacheMisses+um.CacheDedupWaits != 0 {
		t.Errorf("uncached run reported cache traffic: %+v", um)
	}
	for i := range cells {
		a, b := cached[i].Meas, uncached[i].Meas
		if a.ExecMS != b.ExecMS || a.MemoryKB != b.MemoryKB {
			t.Errorf("%s: cached (%v ms, %v KB) != uncached (%v ms, %v KB)",
				cells[i].Label(), a.ExecMS, a.MemoryKB, b.ExecMS, b.MemoryKB)
		}
		ao, bo := a.Result.OutputStrings(), b.Result.OutputStrings()
		if len(ao) != len(bo) {
			t.Errorf("%s: output length differs", cells[i].Label())
			continue
		}
		for j := range ao {
			if ao[j] != bo[j] {
				t.Errorf("%s: output line %d differs: %q vs %q",
					cells[i].Label(), j, ao[j], bo[j])
			}
		}
	}
}

func TestRunCellsCacheCounters(t *testing.T) {
	cells := profileGrid(t, "atax",
		[]*browser.Profile{browser.Chrome(browser.Desktop),
			browser.Firefox(browser.Desktop), browser.Edge(browser.Desktop)})
	_, m := RunCellsWith(cells, RunOptions{Workers: 1})
	// One worker serializes the grid: first cell compiles, the rest hit.
	if m.CacheMisses != 1 || m.CacheHits != 2 || m.CacheDedupWaits != 0 {
		t.Errorf("counters = %d/%d/%d (miss/hit/wait), want 1/2/0",
			m.CacheMisses, m.CacheHits, m.CacheDedupWaits)
	}
	wantHit := []bool{false, true, true}
	for i, c := range m.Cells {
		if c.CacheHit != wantHit[i] {
			t.Errorf("cell %d CacheHit = %v, want %v", i, c.CacheHit, wantHit[i])
		}
	}
}

func TestSharedCacheAcrossRuns(t *testing.T) {
	cells := profileGrid(t, "atax",
		[]*browser.Profile{browser.Chrome(browser.Desktop), browser.Firefox(browser.Desktop)})
	ac := NewArtifactCache()
	_, m1 := RunCellsWith(cells, RunOptions{Workers: 1, Cache: ac})
	_, m2 := RunCellsWith(cells, RunOptions{Workers: 1, Cache: ac})
	if m1.CacheMisses != 1 || m1.CacheHits != 1 {
		t.Errorf("run 1 counters: %d misses, %d hits; want 1, 1", m1.CacheMisses, m1.CacheHits)
	}
	// The second run is fully warm, and its counters are deltas — the
	// first run's miss must not leak in.
	if m2.CacheMisses != 0 || m2.CacheHits != 2 {
		t.Errorf("run 2 counters: %d misses, %d hits; want 0, 2", m2.CacheMisses, m2.CacheHits)
	}
	if ac.Len() != 1 {
		t.Errorf("cache holds %d artifacts, want 1", ac.Len())
	}
}

func TestQueueDepthCountdown(t *testing.T) {
	cells := profileGrid(t, "atax",
		[]*browser.Profile{browser.Chrome(browser.Desktop), browser.Firefox(browser.Desktop),
			browser.Edge(browser.Desktop), browser.Chrome(browser.Mobile)})
	_, m := RunCellsWith(cells, RunOptions{Workers: 1})
	// A single worker drains in submission order, so the depth at pickup
	// counts the remaining cells including the one picked: k, k-1, …, 1.
	for i, c := range m.Cells {
		if want := len(cells) - i; c.QueueDepth != want {
			t.Errorf("cell %d queue depth = %d, want %d", i, c.QueueDepth, want)
		}
	}
}

func TestRunCellsWithInvariants(t *testing.T) {
	b := mustBench(t, "atax")
	var cells []Cell
	for _, p := range browser.AllProfiles() {
		for _, lang := range []string{"wasm", "js"} {
			cells = append(cells, Cell{Bench: b, Size: benchsuite.XS, Level: ir.O2,
				Lang: lang, Profile: p})
		}
	}
	var ref []float64
	for _, workers := range []int{1, 4, len(cells) + 5} {
		res, m := RunCellsWith(cells, RunOptions{Workers: workers})
		if err := FirstError(res); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if m.Workers != workers {
			t.Errorf("metrics workers = %d, want %d", m.Workers, workers)
		}
		if len(res) != len(cells) || len(m.Cells) != len(cells) {
			t.Fatalf("workers=%d: %d results, %d metrics", workers, len(res), len(m.Cells))
		}
		for i := range cells {
			// Results and metrics land at the submission index regardless
			// of completion order.
			if res[i].Label() != cells[i].Label() {
				t.Errorf("workers=%d: result %d is %s, want %s",
					workers, i, res[i].Label(), cells[i].Label())
			}
			if m.Cells[i].Label != cells[i].Label() {
				t.Errorf("workers=%d: metric %d is %s, want %s",
					workers, i, m.Cells[i].Label, cells[i].Label())
			}
			if w := m.Cells[i].Worker; w < 0 || w >= workers {
				t.Errorf("workers=%d: cell %d ran on worker %d", workers, i, w)
			}
			if d := m.Cells[i].QueueDepth; d < 1 || d > len(cells) {
				t.Errorf("workers=%d: cell %d queue depth %d out of [1,%d]",
					workers, i, d, len(cells))
			}
		}
		// Virtual-time measurements are deterministic across pool sizes.
		ms := make([]float64, len(res))
		for i, r := range res {
			ms[i] = r.Meas.ExecMS
		}
		if ref == nil {
			ref = ms
			continue
		}
		for i := range ms {
			if ms[i] != ref[i] {
				t.Errorf("workers=%d: cell %d ExecMS %v != single-worker %v",
					workers, i, ms[i], ref[i])
			}
		}
	}
}

func TestMean(t *testing.T) {
	if m := Mean(nil); m != 0 {
		t.Errorf("mean(nil) = %v", m)
	}
	if m := Mean([]float64{1, 2, 3, 4}); math.Abs(m-2.5) > 1e-12 {
		t.Errorf("mean = %v", m)
	}
}

func TestSummarizeEvenLength(t *testing.T) {
	// Even-length input exercises the interpolated quartile branch:
	// for {1,2,3,4}, q1 = 1.75, median = 2.5, q3 = 3.25.
	fn := Summarize([]float64{4, 2, 1, 3})
	if fn.Min != 1 || fn.Max != 4 {
		t.Errorf("extremes: %+v", fn)
	}
	if math.Abs(fn.Q1-1.75) > 1e-12 || math.Abs(fn.Median-2.5) > 1e-12 ||
		math.Abs(fn.Q3-3.25) > 1e-12 {
		t.Errorf("quartiles: %+v", fn)
	}
	if fn.String() == "" {
		t.Error("empty String()")
	}
	if (Summarize(nil) != FiveNum{}) {
		t.Error("summarize(nil) not zero")
	}
}

func TestSplitSpeedAllSlowdowns(t *testing.T) {
	// Wasm uniformly 2× slower than JS: the overall geomean flips to a
	// slowdown factor with AllUp unset.
	s := SplitSpeed([]float64{4, 4}, []float64{2, 2})
	if s.SUCount != 0 || s.SDCount != 2 {
		t.Fatalf("counts: %+v", s)
	}
	if s.AllUp || math.Abs(s.AllGmean-2) > 1e-9 {
		t.Errorf("all gmean: %+v", s)
	}
	if math.Abs(s.SDGmean-2) > 1e-9 {
		t.Errorf("sd gmean: %+v", s)
	}
}

func TestSplitSpeedSkipsJunk(t *testing.T) {
	// Non-positive samples on either side drop the pair entirely.
	s := SplitSpeed([]float64{0, -1, 1}, []float64{2, 2, 2})
	if s.SUCount != 1 || s.SDCount != 0 {
		t.Errorf("counts after junk: %+v", s)
	}
	if !s.AllUp || math.Abs(s.AllGmean-2) > 1e-9 {
		t.Errorf("all gmean: %+v", s)
	}
	if s := SplitSpeed(nil, nil); s.AllUp || s.AllGmean != 0 {
		t.Errorf("empty split: %+v", s)
	}
}
