// Package obsv is the study's unified observability layer: structured
// execution tracing and virtual-cycle profiling shared by the Wasm VM, the
// JS engine, the compiler driver, and the measurement harness.
//
// The paper's analysis sections attribute the Wasm/JS gap to *events* —
// tier-up points (§4.4), GC cycles (§4.6), memory grows (§4.2.2/§4.3),
// dynamic instruction mixes (Appendix D) — and this package gives every
// layer a common vocabulary for them. A Tracer is nil by default; every
// hook site in the VMs is guarded by a single nil check, so disabled
// tracing costs one predictable branch on the hot path and zero
// allocations.
//
// Timestamps are deterministic virtual cycles (the VMs' own clocks), so
// the same program traced twice produces byte-identical event streams.
// Harness-level events (CellStart/CellDone) are the one exception: they
// are stamped with wall-clock nanoseconds relative to the run start,
// because scheduling is what they observe.
package obsv

import "sync"

// Kind discriminates trace events.
type Kind uint8

// Event kinds.
const (
	// KindCallEnter/KindCallExit bracket one function activation in a VM.
	// Name is the function, TS the virtual-cycle clock at entry/exit.
	KindCallEnter Kind = iota
	KindCallExit
	// KindTierUp marks a function's promotion to the optimizing tier
	// (§4.4.2). Name is the function; A is the static size used for the
	// compile charge (instructions or AST nodes).
	KindTierUp
	// KindGCCycle marks one mark-sweep collection (§4.6). A is the bytes
	// freed, B the surviving object count; Dur is the collection charge in
	// virtual cycles.
	KindGCCycle
	// KindMemGrow marks one memory.grow (§4.2.2). Name is the requesting
	// function, A the delta in pages, B the previous page count (-1 on
	// failure).
	KindMemGrow
	// KindCompilePass is one compiler stage or optimization pass. Name is
	// the pass; Dur is its deterministic work estimate (IR nodes walked),
	// A/B are the node counts before/after.
	KindCompilePass
	// KindCellStart/KindCellDone bracket one harness measurement cell.
	// Name is the cell label; for CellDone, Dur is the cell's wall time in
	// nanoseconds and A the worker index that ran it.
	KindCellStart
	KindCellDone
	// KindDivergence marks one cross-backend disagreement found by the
	// differential oracle (internal/difftest). Name is the program label
	// with the optimization level; A counts the divergence.
	KindDivergence
	// KindFault marks one injected fault firing (internal/faultinject).
	// Name is the injection point, Track the emitting layer.
	KindFault
	// KindRetry marks one harness retry of a failed cell. Name is the cell
	// label; A is the attempt number being started (1-based), B the seeded
	// backoff in milliseconds that preceded it.
	KindRetry
	// KindDegrade marks the harness re-running a cell one rung down the
	// graceful-degradation ladder. Name is the cell label; Track carries
	// the rung ("noaot", "nojit", "O0").
	KindDegrade
	// KindQuarantine marks a benchmark being quarantined after N
	// consecutive failures. Name is the cell label; A is the consecutive
	// failure count that tripped it.
	KindQuarantine
	// KindTruncation is a synthetic marker that leads a bounded
	// Collector's window once the ring has overwritten older events
	// (see Collector.Events). Name describes the loss; A is the number of
	// events lost.
	KindTruncation
	// KindAOTCompile marks an optimizing-tier function's register body
	// being AOT-compiled into superblocks of pre-bound closures (the wasmvm
	// optimizing tier's dispatcher). Name is the function; A is the
	// superblock count, B the register-form length. The compile charges no
	// virtual cycles (the AOT tier is invisible to the virtual clock).
	KindAOTCompile
	numKinds
)

var kindNames = [numKinds]string{
	"call-enter", "call-exit", "tier-up", "gc-cycle", "mem-grow",
	"compile-pass", "cell-start", "cell-done", "divergence",
	"fault", "retry", "degrade", "quarantine", "truncation",
	"aot-compile",
}

// String returns the kind's short name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one trace record. Events are plain values with fixed typed
// fields (no maps) so that encoding them is deterministic.
type Event struct {
	Kind Kind
	// TS is the timestamp in virtual cycles (≈ nanoseconds at the 1 GHz
	// reference clock); harness events use wall nanoseconds.
	TS float64
	// Dur is the span length for complete events (compile passes, cells,
	// GC cycles); zero for instants and begin/end pairs.
	Dur float64
	// Name identifies the subject: function, pass, or cell.
	Name string
	// Track labels the emitting layer ("wasm", "js", "compile",
	// "harness"), optionally prefixed by the browser profile via WithTrack.
	Track string
	// A and B carry kind-specific numeric payload (see the Kind docs).
	A, B float64
}

// Tracer receives trace events. Implementations used from RunCells must be
// safe for concurrent Emit calls (Collector is).
type Tracer interface {
	Emit(Event)
}

// Collector is the one event buffer, mutex-protected and safe for
// concurrent Emit. The zero value keeps every event — what the CLIs and
// tests export. Collector{Cap: n} is a ring that keeps the newest n events
// and counts the ones it overwrote: the flight window a long-running
// process serves live ("what just happened"). Emit and Events are safe on
// a nil *Collector.
type Collector struct {
	// Cap bounds the buffer (0 = unbounded); set it before the first Emit.
	Cap int

	mu          sync.Mutex
	events      []Event
	next        int // ring cursor once full: the slot the next event overwrites
	overwritten int
}

// Emit stores the event, overwriting the oldest once a ring is full.
func (c *Collector) Emit(e Event) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.Cap <= 0 || len(c.events) < c.Cap {
		c.events = append(c.events, e)
	} else {
		c.events[c.next] = e
		c.overwritten++
		if c.next++; c.next == c.Cap {
			c.next = 0
		}
	}
	c.mu.Unlock()
}

// Events returns a copy of the retained events in arrival order. When a
// ring has overwritten older events, a KindTruncation marker leads the
// window — the hole is before the first retained event — so exporters
// show where the record starts instead of silently beginning mid-run.
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.overwritten == 0 {
		return append([]Event(nil), c.events...)
	}
	out := make([]Event, 0, len(c.events)+1)
	out = append(out, Event{Kind: KindTruncation, TS: c.events[c.next].TS,
		Name: "ring full: oldest events overwritten", A: float64(c.overwritten)})
	out = append(out, c.events[c.next:]...)
	return append(out, c.events[:c.next]...)
}

// Len returns the number of retained events (the marker not counted).
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// trackTracer prefixes every event's track, labeling which engine/profile
// a shared collector's events came from.
type trackTracer struct {
	inner  Tracer
	prefix string
}

func (t trackTracer) Emit(e Event) {
	if e.Track == "" {
		e.Track = t.prefix
	} else {
		e.Track = t.prefix + "/" + e.Track
	}
	t.inner.Emit(e)
}

// WithTrack wraps a tracer so every event's Track is prefixed (e.g.
// "chrome-desktop" turns the VM's "wasm" into "chrome-desktop/wasm").
// A nil tracer stays nil, preserving the disabled fast path.
func WithTrack(t Tracer, prefix string) Tracer {
	if t == nil {
		return nil
	}
	return trackTracer{inner: t, prefix: prefix}
}

// multiTracer fans one event stream out to several tracers.
type multiTracer struct{ tracers []Tracer }

func (m multiTracer) Emit(e Event) {
	for _, t := range m.tracers {
		t.Emit(e)
	}
}

// Multi tees events to every non-nil tracer. Nil entries are dropped; if
// none (or one) remain, Multi returns nil (or that tracer) so the
// disabled fast path and single-tracer dispatch stay unwrapped.
func Multi(tracers ...Tracer) Tracer {
	kept := make([]Tracer, 0, len(tracers))
	for _, t := range tracers {
		if t != nil {
			kept = append(kept, t)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return multiTracer{tracers: kept}
}

// FilterKinds returns the subset of events whose kind is in kinds,
// preserving order.
func FilterKinds(events []Event, kinds ...Kind) []Event {
	want := [numKinds]bool{}
	for _, k := range kinds {
		if int(k) < int(numKinds) {
			want[k] = true
		}
	}
	var out []Event
	for _, e := range events {
		if int(e.Kind) < int(numKinds) && want[e.Kind] {
			out = append(out, e)
		}
	}
	return out
}
