package obsv

import (
	"bytes"
	"strings"
	"testing"
)

// TestEventsWithTruncation checks that a ring's losses are surfaced, not
// silent: once Collector{Cap} has overwritten events, Events leads the
// window with one KindTruncation marker that counts them and is stamped at
// the first retained event, where the hole is.
func TestEventsWithTruncation(t *testing.T) {
	c := &Collector{Cap: 2}
	for i := 0; i < 5; i++ {
		c.Emit(Event{Kind: KindCallEnter, TS: float64(i * 10), Name: "f"})
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	got := c.Events()
	if len(got) != 3 {
		t.Fatalf("Events = %d events, want marker + 2", len(got))
	}
	mark := got[0]
	if mark.Kind != KindTruncation || mark.A != 3 {
		t.Fatalf("events[0] = %+v, want KindTruncation with A=3", mark)
	}
	if mark.TS != got[1].TS || got[1].TS != 30 {
		t.Fatalf("marker TS = %v, first retained TS = %v, want both 30", mark.TS, got[1].TS)
	}
	for _, e := range got[1:] {
		if e.Kind == KindTruncation {
			t.Fatalf("marker repeated inside the window: %+v", got)
		}
	}

	// Nothing overwritten: no marker, bounded or not.
	for _, c := range []*Collector{{}, {Cap: 8}} {
		c.Emit(Event{Kind: KindCallEnter, TS: 1})
		if got := c.Events(); len(got) != 1 || got[0].Kind != KindCallEnter {
			t.Fatalf("collector with nothing lost grew a marker: %+v", got)
		}
	}
}

// TestTruncationInExporters checks every exporter renders the marker.
func TestTruncationInExporters(t *testing.T) {
	events := []Event{
		{Kind: KindTruncation, Name: "ring full: oldest events overwritten", A: 7},
		{Kind: KindCallEnter, TS: 0, Name: "main", Track: "wasm"},
		{Kind: KindCallExit, TS: 100, Name: "main", Track: "wasm"},
	}

	var chrome bytes.Buffer
	if err := WriteChromeTrace(&chrome, events, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), "TRUNCATED: 7 events lost") {
		t.Fatalf("Chrome trace missing truncation instant:\n%s", chrome.String())
	}
	if !strings.Contains(chrome.String(), `"events_lost":7`) {
		t.Fatalf("Chrome trace missing events_lost arg:\n%s", chrome.String())
	}

	var folded bytes.Buffer
	if err := WriteFolded(&folded, events); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(folded.String(), "[TRUNCATED:") {
		t.Fatalf("folded output missing truncation line:\n%s", folded.String())
	}

	passes := []Event{
		{Kind: KindTruncation, Name: "ring full: oldest events overwritten", A: 3},
		{Kind: KindCompilePass, TS: 0, Dur: 10, Name: "parse", Track: "compile"},
	}
	table := CompilePassTable(passes)
	if !strings.Contains(table, "TRUNCATED: 3 events lost") {
		t.Fatalf("pass table missing truncation note:\n%s", table)
	}
}

// TestMulti checks the tracer tee: fan-out to all targets, nil filtering,
// and unwrapping down to nil/single.
func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of nothing must be nil (preserves the disabled fast path)")
	}
	a := &Collector{}
	if got := Multi(nil, a, nil); got != Tracer(a) {
		t.Fatalf("Multi with one live tracer = %T, want the tracer itself", got)
	}
	b := &Collector{}
	m := Multi(a, b)
	m.Emit(Event{Kind: KindCallEnter, TS: 1, Name: "x"})
	m.Emit(Event{Kind: KindCallExit, TS: 2, Name: "x"})
	if a.Len() != 2 || b.Len() != 2 {
		t.Fatalf("tee delivered %d/%d events, want 2/2", a.Len(), b.Len())
	}
}
