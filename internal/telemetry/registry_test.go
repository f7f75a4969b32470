package telemetry

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter from many goroutines; the
// striped adder must neither lose nor duplicate updates. Run under -race
// this also exercises the CAS/stripe paths for data races.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "")
	const goroutines, perG = 16, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), float64(goroutines*perG); got != want {
		t.Fatalf("concurrent counter = %v, want %v", got, want)
	}
}

// TestCounterFloatConcurrent checks striped float accumulation: fractional
// cycle charges from many goroutines must sum exactly (0.25 is a power of
// two, so float addition here is associative and the total is exact).
func TestCounterFloatConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cycles_total", "")
	const goroutines, perG = 8, 4000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add(0.25)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), float64(goroutines*perG)*0.25; got != want {
		t.Fatalf("float counter = %v, want %v", got, want)
	}
}

func TestCounterMonotonic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mono_total", "")
	c.Add(5)
	c.Add(-3) // ignored: counters are monotonic by contract
	c.Add(0)  // ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter after negative add = %v, want 5", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
	g.SetMax(5) // below current: no effect
	if got := g.Value(); got != 7 {
		t.Fatalf("SetMax lowered gauge to %v", got)
	}
	g.SetMax(42)
	if got := g.Value(); got != 42 {
		t.Fatalf("SetMax = %v, want 42", got)
	}
}

// TestNilInstruments verifies the disabled path: a nil registry hands out
// nil instruments and every method on them is an inert no-op.
func TestNilInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", []float64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned non-nil instruments")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	g.SetMax(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments accumulated state")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
	if s := r.Snapshot(); len(s.Metrics) != 0 {
		t.Fatalf("nil registry snapshot has %d metrics", len(s.Metrics))
	}
	if NewVMInstruments(nil) != nil || NewJSInstruments(nil) != nil ||
		NewCompilerInstruments(nil) != nil || NewCacheInstruments(nil) != nil ||
		NewHarnessInstruments(nil) != nil {
		t.Fatal("nil registry produced a non-nil instrument bundle")
	}
}

// TestHistogramBucketBoundaries pins the Prometheus le semantics: a bucket
// with bound le counts observations v <= le, and values above the last
// bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 10, 100})
	for _, v := range []float64{
		0.5,   // le=1
		1,     // le=1 (boundary is inclusive)
		1.001, // le=10
		10,    // le=10
		99.99, // le=100
		100,   // le=100
		100.1, // +Inf
		1e9,   // +Inf
	} {
		h.Observe(v)
	}
	_, counts := h.Buckets()
	want := []uint64{2, 2, 2, 2}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, counts[i], w, counts)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	wantSum := 0.5 + 1 + 1.001 + 10 + 99.99 + 100 + 100.1 + 1e9
	if math.Abs(h.Sum()-wantSum) > 1e-9*wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc", "", []float64{100, 1000})
	const goroutines, perG = 8, 3000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g*200 + 50)) // spreads across all three buckets
			}
		}()
	}
	wg.Wait()
	if got, want := h.Count(), uint64(goroutines*perG); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	_, counts := h.Buckets()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != h.Count() {
		t.Fatalf("bucket counts sum to %d, count is %d", total, h.Count())
	}
}

// TestRegistryGetOrCreate checks idempotent registration (the instrument
// bundles re-register per run and must land on the same instruments).
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("same", "first help")
	c2 := r.Counter("same", "second help ignored")
	if c1 != c2 {
		t.Fatal("repeated Counter registration returned distinct instruments")
	}
	h1 := r.Histogram("hist", "", []float64{1, 2})
	h2 := r.Histogram("hist", "", []float64{9, 99}) // bounds from first registration win
	if h1 != h2 {
		t.Fatal("repeated Histogram registration returned distinct instruments")
	}
	bounds, _ := h2.Buckets()
	if len(bounds) != 2 || bounds[0] != 1 || bounds[1] != 2 {
		t.Fatalf("second registration changed bounds: %v", bounds)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("same", "")
}

func TestLabel(t *testing.T) {
	if got, want := Label("x_total"), "x_total"; got != want {
		t.Fatalf("Label no kv = %q, want %q", got, want)
	}
	got := Label("x_total", "tier", "basic")
	if want := `x_total{tier="basic"}`; got != want {
		t.Fatalf("Label = %q, want %q", got, want)
	}
	// Keys sort, values escape.
	got = Label("x", "b", "2", "a", `say "hi"`)
	if want := `x{a="say \"hi\"",b="2"}`; got != want {
		t.Fatalf("Label multi = %q, want %q", got, want)
	}
}

// TestWritePrometheus locks down the exposition format: sorted families,
// one HELP/TYPE header per family even with labeled variants, cumulative
// le buckets with +Inf, and _sum/_count lines.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("tier_cycles_total", "tier", "basic"), "cycles per tier").Add(10)
	r.Counter(Label("tier_cycles_total", "tier", "opt"), "cycles per tier").Add(20)
	r.Gauge("queue_depth", "pending cells").Set(3)
	h := r.Histogram("lat_seconds", "latency", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="1"} 1
lat_seconds_bucket{le="10"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 105.5
lat_seconds_count 3
# HELP queue_depth pending cells
# TYPE queue_depth gauge
queue_depth 3
# HELP tier_cycles_total cycles per tier
# TYPE tier_cycles_total counter
tier_cycles_total{tier="basic"} 10
tier_cycles_total{tier="opt"} 20
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(7)
	h := r.Histogram("b_hist", "", []float64{10})
	h.Observe(5)
	h.Observe(50)

	s := r.Snapshot()
	if len(s.Metrics) != 2 {
		t.Fatalf("snapshot has %d metrics, want 2", len(s.Metrics))
	}
	if m := s.Metrics[0]; m.Name != "a_total" || m.Type != "counter" || m.Value != 7 {
		t.Fatalf("snapshot[0] = %+v", m)
	}
	m := s.Metrics[1]
	if m.Type != "histogram" || m.Count != 2 || m.Sum != 55 {
		t.Fatalf("snapshot[1] = %+v", m)
	}
	if len(m.Buckets) != 2 || m.Buckets[0].Count != 1 || m.Buckets[1].Count != 1 {
		t.Fatalf("snapshot buckets = %+v", m.Buckets)
	}
	if !math.IsInf(m.Buckets[1].LE, 1) {
		t.Fatalf("overflow bucket LE = %v, want +Inf", m.Buckets[1].LE)
	}

	var js strings.Builder
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"le": null`) {
		t.Fatalf("JSON overflow bucket not le:null:\n%s", js.String())
	}
	txt := s.Text()
	if !strings.Contains(txt, "a_total") || !strings.Contains(txt, "count=2 sum=55") {
		t.Fatalf("snapshot text missing metrics:\n%s", txt)
	}
}

// TestWriteSnapshot covers the three -telemetry-snapshot destinations:
// "-" prints the text table to stdout, *.json gets JSON, any other path
// the text table; file writes are confirmed on stdout.
func TestWriteSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(7)
	snap := r.Snapshot()
	dir := t.TempDir()

	var out strings.Builder
	if err := WriteSnapshot(&out, "-", snap); err != nil {
		t.Fatal(err)
	}
	if out.String() != snap.Text() {
		t.Fatalf("stdout = %q, want the text table %q", out.String(), snap.Text())
	}

	jsonPath := filepath.Join(dir, "m.json")
	out.Reset()
	if err := WriteSnapshot(&out, jsonPath, snap); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil || len(back.Metrics) != 1 || back.Metrics[0].Value != 7 {
		t.Fatalf("JSON file = %s (err %v)", data, err)
	}
	if want := "telemetry snapshot: 1 metrics -> " + jsonPath + "\n"; out.String() != want {
		t.Fatalf("stdout = %q, want %q", out.String(), want)
	}

	txtPath := filepath.Join(dir, "m.txt")
	out.Reset()
	if err := WriteSnapshot(&out, txtPath, snap); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(txtPath); err != nil || string(data) != snap.Text() {
		t.Fatalf("text file = %q (err %v), want %q", data, err, snap.Text())
	}
	if !strings.HasSuffix(out.String(), "-> "+txtPath+"\n") {
		t.Fatalf("stdout = %q, want a confirmation line", out.String())
	}

	if err := WriteSnapshot(&out, filepath.Join(dir, "missing", "m.json"), snap); err == nil {
		t.Fatal("writing into a missing directory succeeded")
	}
}
