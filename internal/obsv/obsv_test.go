package obsv

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// sampleTrace is a small well-formed stream: main calls f twice (the
// second call tiers up), then grows memory.
func sampleTrace() []Event {
	return []Event{
		{Kind: KindCallEnter, TS: 0, Name: "main", Track: "wasm"},
		{Kind: KindCallEnter, TS: 100, Name: "f", Track: "wasm"},
		{Kind: KindCallExit, TS: 300, Name: "f", Track: "wasm"},
		{Kind: KindTierUp, TS: 350, Name: "f", Track: "wasm", A: 12},
		{Kind: KindCallEnter, TS: 400, Name: "f", Track: "wasm"},
		{Kind: KindCallExit, TS: 500, Name: "f", Track: "wasm"},
		{Kind: KindMemGrow, TS: 600, Name: "main", Track: "wasm", A: 1, B: 2},
		{Kind: KindCallExit, TS: 1000, Name: "main", Track: "wasm"},
	}
}

func TestCollector(t *testing.T) {
	var c Collector
	for _, e := range sampleTrace() {
		c.Emit(e)
	}
	if c.Len() != 8 {
		t.Fatalf("len = %d", c.Len())
	}
	ev := c.Events()
	if ev[0].Name != "main" || ev[3].Kind != KindTierUp {
		t.Errorf("unexpected events: %+v", ev[:4])
	}
	// The snapshot is a copy.
	ev[0].Name = "mutated"
	if c.Events()[0].Name != "main" {
		t.Error("Events() aliases internal buffer")
	}
}

// TestCollectorLimit checks a bounded collector: Collector{Cap} retains
// exactly Cap events, the newest, in arrival order. The truncation marker
// Events puts in front is checked by TestEventsWithTruncation.
func TestCollectorLimit(t *testing.T) {
	c := Collector{Cap: 3}
	for _, e := range sampleTrace() {
		c.Emit(e)
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	got := c.Events()
	want := sampleTrace()[5:]
	if len(got) != len(want)+1 {
		t.Fatalf("Events = %d events, want marker + %d", len(got), len(want))
	}
	for i, e := range got[1:] {
		if e != want[i] {
			t.Fatalf("window[%d] = %+v, want %+v (newest, in order)", i, e, want[i])
		}
	}
}

func ringEvent(i int) Event {
	return Event{Kind: KindCallEnter, TS: float64(i), A: float64(i)}
}

// TestCollectorNilSafe: a nil collector is an inert tracer.
func TestCollectorNilSafe(t *testing.T) {
	var c *Collector
	c.Emit(ringEvent(1))
	if got := c.Events(); got != nil {
		t.Fatalf("nil collector Events = %+v", got)
	}
}

// TestCollectorRingConcurrent checks the ring under parallel emitters and
// concurrent snapshots (data-race coverage via -race); the count
// invariant holds regardless of interleaving.
func TestCollectorRingConcurrent(t *testing.T) {
	c := &Collector{Cap: 64}
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Emit(ringEvent(i))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := c.Events(); len(got) > 65 {
					t.Errorf("snapshot of %d events exceeds cap + marker", len(got))
				}
			}
		}()
	}
	wg.Wait()
	events := c.Events()
	if len(events) != 65 || events[0].Kind != KindTruncation {
		t.Fatalf("full ring snapshot = %d events, want marker + 64", len(events))
	}
	if got, want := int(events[0].A)+len(events)-1, goroutines*perG; got != want {
		t.Fatalf("held+overwritten = %d, want %d", got, want)
	}
}

func TestWithTrack(t *testing.T) {
	var c Collector
	tr := WithTrack(&c, "chrome-desktop")
	tr.Emit(Event{Kind: KindTierUp, Track: "wasm", Name: "f"})
	tr.Emit(Event{Kind: KindCellStart, Name: "cell"})
	ev := c.Events()
	if ev[0].Track != "chrome-desktop/wasm" || ev[1].Track != "chrome-desktop" {
		t.Errorf("tracks: %q %q", ev[0].Track, ev[1].Track)
	}
	if WithTrack(nil, "x") != nil {
		t.Error("WithTrack(nil) must stay nil for the disabled fast path")
	}
}

func TestFlame(t *testing.T) {
	trees := Flame(sampleTrace())
	roots := trees["wasm"]
	if len(roots) != 1 || roots[0].Name != "main" {
		t.Fatalf("roots: %+v", roots)
	}
	main := roots[0]
	if main.Calls != 1 || main.TotalCycles != 1000 {
		t.Errorf("main: %+v", main)
	}
	// Two f calls merged into one child: total 200+100, self the same.
	if len(main.Children) != 1 {
		t.Fatalf("children: %+v", main.Children)
	}
	f := main.Children[0]
	if f.Name != "f" || f.Calls != 2 || f.TotalCycles != 300 || f.SelfCycles != 300 {
		t.Errorf("f: %+v", f)
	}
	if main.SelfCycles != 700 {
		t.Errorf("main self = %v", main.SelfCycles)
	}
}

func TestFlameUnbalancedTail(t *testing.T) {
	// A trap leaves calls open; they are closed at the last timestamp.
	trees := Flame([]Event{
		{Kind: KindCallEnter, TS: 0, Name: "main", Track: "wasm"},
		{Kind: KindCallEnter, TS: 50, Name: "f", Track: "wasm"},
	})
	main := trees["wasm"][0]
	if main.TotalCycles != 50 || main.Children[0].TotalCycles != 0 {
		t.Errorf("tail closing: %+v", main)
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	profiles := []FuncProfile{
		{Name: "main", Track: "wasm", Calls: 1, SelfCycles: 700, TotalCycles: 1000,
			Classes: []ClassCount{{Class: "addsub", Count: 42}}},
		{Name: "f", Track: "wasm", Calls: 2, SelfCycles: 300, TotalCycles: 300},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleTrace(), profiles); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var phases []string
	for _, e := range doc.TraceEvents {
		phases = append(phases, e.Ph)
	}
	joined := strings.Join(phases, "")
	for _, want := range []string{"M", "B", "E", "i", "X"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing phase %q in %v", want, phases)
		}
	}
	if !strings.Contains(buf.String(), `"tier-up f"`) {
		t.Error("tier-up instant missing")
	}
	if !strings.Contains(buf.String(), `"n_addsub":42`) {
		t.Error("profile class args missing")
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	profiles := []FuncProfile{{Name: "main", Calls: 1, SelfCycles: 1, TotalCycles: 1}}
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, sampleTrace(), profiles); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, sampleTrace(), profiles); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("exporter is not byte-deterministic")
	}
}

func TestWriteFolded(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFolded(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "wasm;main 700\nwasm;main;f 300\n"
	if got != want {
		t.Errorf("folded:\n%s\nwant:\n%s", got, want)
	}
}

func TestProfileTable(t *testing.T) {
	s := ProfileTable([]FuncProfile{
		{Name: "cold", Calls: 1, SelfCycles: 10, TotalCycles: 10},
		{Name: "hot", Calls: 5, SelfCycles: 90, TotalCycles: 100,
			Classes: []ClassCount{{Class: "mul", Count: 7}, {Class: "load", Count: 30}}},
	})
	hotIdx := strings.Index(s, "hot")
	coldIdx := strings.Index(s, "cold")
	if hotIdx < 0 || coldIdx < 0 || hotIdx > coldIdx {
		t.Errorf("expected hottest-first ordering:\n%s", s)
	}
	if !strings.Contains(s, "load:30") {
		t.Errorf("class breakdown missing:\n%s", s)
	}
}

func TestCompilePassTable(t *testing.T) {
	s := CompilePassTable([]Event{
		{Kind: KindCompilePass, Name: "constfold", Dur: 120, A: 120, B: 100},
		{Kind: KindCompilePass, Name: "dce", Dur: 100, A: 100, B: 80},
		{Kind: KindTierUp, Name: "ignored"},
	})
	if !strings.Contains(s, "constfold") || !strings.Contains(s, "dce") {
		t.Errorf("passes missing:\n%s", s)
	}
	if !strings.Contains(s, "-20") {
		t.Errorf("delta missing:\n%s", s)
	}
}

func TestRunMetrics(t *testing.T) {
	m := &RunMetrics{
		Workers: 2,
		Span:    100 * time.Millisecond,
		Cells: []CellMetric{
			{Label: "a", Wall: 80 * time.Millisecond, Compile: 20 * time.Millisecond, Measure: 60 * time.Millisecond},
			{Label: "b", Wall: 120 * time.Millisecond, Compile: 30 * time.Millisecond, Measure: 90 * time.Millisecond, CacheHit: true},
		},
	}
	if u := m.Utilization(); math.Abs(u-1.0) > 1e-9 {
		t.Errorf("utilization = %v", u)
	}
	if cs := m.CompileShare(); math.Abs(cs-0.25) > 1e-9 {
		t.Errorf("compile share = %v", cs)
	}
	out := m.Render()
	if !strings.Contains(out, "utilization: 100.0%") || !strings.Contains(out, "workers: 2") {
		t.Errorf("render:\n%s", out)
	}
	// The cache column marks hit cells; the summary line only appears for
	// runs where the cache was actually on.
	if !strings.Contains(out, "hit") || strings.Contains(out, "compile cache:") {
		t.Errorf("cache rendering:\n%s", out)
	}
	m.CacheEnabled = true
	m.CacheHits, m.CacheMisses, m.CacheDedupWaits = 1, 1, 0
	if out := m.Render(); !strings.Contains(out, "compile cache: 1 hits  1 misses  0 dedup-waits") {
		t.Errorf("cache summary line:\n%s", out)
	}
}

func TestFilterKinds(t *testing.T) {
	ev := FilterKinds(sampleTrace(), KindTierUp, KindMemGrow)
	if len(ev) != 2 || ev[0].Kind != KindTierUp || ev[1].Kind != KindMemGrow {
		t.Errorf("filtered: %+v", ev)
	}
}
