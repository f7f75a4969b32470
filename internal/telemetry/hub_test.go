package telemetry

import (
	"testing"

	"wasmbench/internal/obsv"
)

func ev(i int) obsv.Event {
	return obsv.Event{Kind: obsv.KindCallEnter, TS: float64(i), A: float64(i)}
}

// TestFlightKeepsNewest is the flight window's core contract: events fed
// through the hub's tracer land in a ring that keeps the newest ones in
// order and counts the rest in its leading truncation marker, where an
// unbounded collector on the same stream keeps everything.
func TestFlightKeepsNewest(t *testing.T) {
	h := NewHub(4)
	tr := h.Tracer()
	for i := 0; i < 10; i++ {
		tr.Emit(ev(i))
	}
	events := h.Flight.Events()
	if len(events) != 5 || events[0].Kind != obsv.KindTruncation || events[0].A != 6 {
		t.Fatalf("flight window = %+v, want marker(6) + 4 events", events)
	}
	for i, e := range events[1:] {
		if want := float64(6 + i); e.TS != want {
			t.Fatalf("window[%d].TS = %v, want %v (window must be newest, in order)", i, e.TS, want)
		}
	}

	var all obsv.Collector
	for i := 0; i < 10; i++ {
		all.Emit(ev(i))
	}
	if kept := all.Events(); len(kept) != 10 || kept[0].TS != 0 || kept[9].TS != 9 {
		t.Fatalf("unbounded collector kept %d events, want all 10 in order", len(kept))
	}
}

// TestFlightPartialWindow: a window that has not wrapped loses nothing and
// shows no marker.
func TestFlightPartialWindow(t *testing.T) {
	h := NewHub(8)
	for i := 0; i < 3; i++ {
		h.Tracer().Emit(ev(i))
	}
	events := h.Flight.Events()
	if len(events) != 3 || events[0].TS != 0 || events[2].TS != 2 {
		t.Fatalf("partial window = %+v, want TS 0..2 with no marker", events)
	}
	if h.Flight.Len() != 3 || h.Flight.Cap != 8 {
		t.Fatalf("Len/Cap = %d/%d, want 3/8", h.Flight.Len(), h.Flight.Cap)
	}
}

// TestFlightNilSafe: a nil hub hands out no live surfaces and ignores
// every hook; so does a hub without a flight window.
func TestFlightNilSafe(t *testing.T) {
	var h *Hub
	if h.Tracer() != nil || h.Registry() != nil {
		t.Fatal("nil hub handed out live surfaces")
	}
	h.DumpFlight("x")
	h.MergeProfiles([]obsv.FuncProfile{{Name: "f"}})
	h.Publish("p", func() any { return nil })
	if d, n := h.LastDump(); d != nil || n != 0 {
		t.Fatal("nil hub recorded a dump")
	}

	// A hub without a flight window hands out no tracer and dumps nothing.
	bare := &Hub{}
	if bare.Tracer() != nil {
		t.Fatal("hub without a flight window handed out a tracer")
	}
	bare.DumpFlight("x")
	if d, n := bare.LastDump(); d != nil || n != 0 {
		t.Fatal("hub without a flight window recorded a dump")
	}
}

// TestHubDumpFreezesWindow verifies a failure dump is immune to later
// traffic — the whole point of freezing it — and carries the ring's
// truncation marker at its front.
func TestHubDumpFreezesWindow(t *testing.T) {
	h := NewHub(4)
	for i := 0; i < 6; i++ {
		h.Flight.Emit(ev(i))
	}
	h.DumpFlight("cell X failed")
	for i := 100; i < 110; i++ {
		h.Flight.Emit(ev(i)) // would overwrite the live window completely
	}
	dump, n := h.LastDump()
	if n != 1 || dump == nil {
		t.Fatalf("dumps = %d, dump = %v", n, dump)
	}
	if dump.Reason != "cell X failed" {
		t.Fatalf("dump = %+v", dump)
	}
	ev := dump.Events
	if len(ev) != 5 || ev[0].Kind != obsv.KindTruncation || ev[0].A != 2 {
		t.Fatalf("dump window = %+v, want marker(2) + 4 events", ev)
	}
	if ev[1].TS != 2 || ev[4].TS != 5 {
		t.Fatalf("dump window = %+v, want TS 2..5", ev)
	}
}

func TestHubMergeProfiles(t *testing.T) {
	h := NewHub(4)
	h.MergeProfiles([]obsv.FuncProfile{
		{Track: "wasm", Name: "f", Calls: 1, SelfCycles: 10, TotalCycles: 15},
		{Track: "wasm", Name: "g", Calls: 2, SelfCycles: 5, TotalCycles: 5},
	})
	h.MergeProfiles([]obsv.FuncProfile{
		{Track: "wasm", Name: "f", Calls: 3, SelfCycles: 30, TotalCycles: 45},
		{Track: "js", Name: "f", Calls: 1, SelfCycles: 100, TotalCycles: 100},
	})
	ps := h.Profiles()
	if len(ps) != 3 {
		t.Fatalf("merged %d profiles, want 3", len(ps))
	}
	// Sorted by self cycles descending: js/f (100), wasm/f (40), wasm/g (5).
	if ps[0].Track != "js" || ps[0].SelfCycles != 100 {
		t.Fatalf("profiles[0] = %+v", ps[0])
	}
	if ps[1].Name != "f" || ps[1].Calls != 4 || ps[1].SelfCycles != 40 || ps[1].TotalCycles != 60 {
		t.Fatalf("merged wasm/f = %+v", ps[1])
	}
}
