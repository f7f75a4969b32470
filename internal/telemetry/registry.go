// Package telemetry is the study's live observability layer: a concurrent
// metrics registry (counters, gauges, fixed-bucket histograms), a hub that
// holds it with a bounded flight window of trace events (an obsv.Collector
// ring), and an embeddable HTTP server that exposes both — plus the live
// profiler and the harness's run record — while a sweep is running.
//
// The package follows the nil-Tracer discipline established by
// internal/obsv: every instrument method is defined on a pointer receiver
// and begins with a nil check, so a VM or harness built without telemetry
// pays ~one predictable branch per hook site and zero allocations. A nil
// *Registry hands out nil instruments, which propagates the disabled fast
// path through whole instrument bundles.
//
// Hot paths are lock-free. Integer-valued updates are single atomic adds;
// float-valued accumulators (virtual cycles are float64) use a
// compare-and-swap with striped overflow cells: the first CAS failure —
// the contention signal — diverts the update to one of several
// cache-line-padded cells chosen from the failed value's bits, the
// LongAdder pattern. Reads sum the stripes; a scrape can therefore tear
// across stripes but each stripe is itself atomic and monotonicity is
// preserved for counters.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// nStripes is the stripe count of float accumulators. Eight 64-byte-padded
// cells cover the harness's worker-pool parallelism (default ≤ 8 workers)
// without false sharing.
const nStripes = 8

// stripe is one cache-line-padded atomic float64 cell.
type stripe struct {
	bits atomic.Uint64
	_    [7]uint64 // pad to 64 bytes so neighboring stripes don't false-share
}

// tryAdd attempts a single CAS add; false signals contention.
func (s *stripe) tryAdd(d float64) bool {
	old := s.bits.Load()
	return s.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d))
}

// addSpin retries the CAS until it lands (used once an update has been
// diverted to its stripe; contention there is already spread out).
func (s *stripe) addSpin(d float64) {
	for !s.tryAdd(d) {
	}
}

func (s *stripe) load() float64 { return math.Float64frombits(s.bits.Load()) }

// floatAdder is the shared striped accumulator behind Counter values and
// histogram sums.
type floatAdder struct {
	base    stripe
	cells   [nStripes]stripe
	spilled atomic.Uint32 // set once contention has ever diverted an update
}

func (a *floatAdder) add(d float64) {
	if a.base.tryAdd(d) {
		return
	}
	// Contended: pick a stripe from the mixed bits of the value and spin
	// there. Different goroutines racing on different values scatter across
	// stripes; identical values still spread via the retry offset.
	a.spilled.Store(1)
	h := math.Float64bits(d)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	for i := uint64(0); ; i++ {
		if a.cells[(h+i)%nStripes].tryAdd(d) {
			return
		}
	}
}

func (a *floatAdder) value() float64 {
	v := a.base.load()
	if a.spilled.Load() != 0 {
		for i := range a.cells {
			v += a.cells[i].load()
		}
	}
	return v
}

// Counter is a monotonically increasing metric (events, cycles, bytes).
// All methods are safe for concurrent use and are no-ops on a nil receiver.
type Counter struct {
	adder floatAdder
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by d (negative deltas are ignored: counters
// are monotonic by contract).
func (c *Counter) Add(d float64) {
	if c == nil || d <= 0 {
		return
	}
	c.adder.add(d)
}

// Value returns the current total (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.adder.value()
}

// Gauge is a point-in-time value that can move both ways (queue depth,
// in-flight cells, peak bytes). Updates are single atomic operations; all
// methods no-op on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by d (CAS loop; gauges are low-frequency).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// SetMax raises the gauge to v if v is greater (high-water marks).
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Bucket upper bounds are set at
// registration and immutable; Observe is one binary search plus one atomic
// increment (and a striped float add for the sum). Prometheus semantics:
// a bucket with bound le counts observations v ≤ le; values above the last
// bound land in the implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf overflow
	sum    floatAdder
	n      atomic.Uint64
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound ≥ v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.sum.add(v)
	h.n.Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.value()
}

// Buckets returns the bucket bounds and their non-cumulative counts
// (the final count is the +Inf overflow bucket).
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	if h == nil {
		return nil, nil
	}
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// CycleBuckets returns the standard virtual-cycle histogram scale:
// exponential decades from 1e3 to 1e12 cycles (≈1 µs to ≈17 min at the
// 1 GHz reference clock), two buckets per decade.
func CycleBuckets() []float64 {
	var b []float64
	for d := 3; d <= 12; d++ {
		p := math.Pow(10, float64(d))
		b = append(b, p, 3*p)
	}
	return b
}

// TimeBuckets returns the standard wall-time histogram scale in seconds:
// 100 µs to 100 s, 1-3-10 per decade.
func TimeBuckets() []float64 {
	var b []float64
	for d := -4; d <= 1; d++ {
		p := math.Pow(10, float64(d))
		b = append(b, p, 3*p)
	}
	return append(b, 100)
}

// metricKind discriminates registry entries.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered instrument.
type metric struct {
	name string // full name, possibly with a {label="v"} suffix
	help string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry is a concurrent instrument namespace. Registration takes a
// write lock; instrument updates after registration are lock-free (the
// instruments themselves are atomic). The zero value is not usable — call
// NewRegistry — but a nil *Registry is valid everywhere and hands out nil
// instruments, keeping the disabled path to one branch per hook.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Label renders a metric name with a sorted label set appended in
// Prometheus form: Label("x_total", "tier", "basic") = `x_total{tier="basic"}`.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		panic("telemetry.Label: odd key/value list")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry; help is kept from the first registration.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, kindCounter)
	return m.c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, kindGauge)
	return m.g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (bounds must be sorted ascending; later calls
// reuse the first registration's buckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kindHistogram {
			panic(fmt.Sprintf("telemetry: %s already registered as %s", name, m.kind))
		}
		return m.h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: %s: bucket bounds not ascending", name))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.metrics[name] = &metric{name: name, help: help, kind: kindHistogram, h: h}
	return h
}

func (r *Registry) lookup(name, help string, kind metricKind) *metric {
	r.mu.RLock()
	m, ok := r.metrics[name]
	r.mu.RUnlock()
	if ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %s already registered as %s", name, m.kind))
		}
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %s already registered as %s", name, m.kind))
		}
		return m
	}
	m = &metric{name: name, help: help, kind: kind}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	}
	r.metrics[name] = m
	return m
}

// sortedMetrics snapshots the registration table in name order.
func (r *Registry) sortedMetrics() []*metric {
	r.mu.RLock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// baseName strips a {label} suffix, returning the metric family name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// withLabel appends one more label to a possibly-labeled metric name
// (used for histogram le labels).
func withLabel(name, k, v string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + k + "=" + strconv.Quote(v) + "}"
	}
	return name + "{" + k + "=" + strconv.Quote(v) + "}"
}

// fnum renders a float in the Prometheus exposition style.
func fnum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus serializes every registered instrument in the
// Prometheus text exposition format (v0.0.4), sorted by metric name so a
// quiescent registry always scrapes to identical bytes. Metrics that share
// a family (same name before the label braces) share one # HELP/# TYPE
// header, as the format requires.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	lastFamily := ""
	for _, m := range r.sortedMetrics() {
		fam := baseName(m.name)
		if fam != lastFamily {
			lastFamily = fam
			if m.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", fam, m.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", fam, m.kind)
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %s\n", m.name, fnum(m.c.Value()))
		case kindGauge:
			fmt.Fprintf(&b, "%s %s\n", m.name, fnum(m.g.Value()))
		case kindHistogram:
			bounds, counts := m.h.Buckets()
			cum := uint64(0)
			for i, bd := range bounds {
				cum += counts[i]
				fmt.Fprintf(&b, "%s %d\n", withLabel(m.name+"_bucket", "le", fnum(bd)), cum)
			}
			cum += counts[len(counts)-1]
			fmt.Fprintf(&b, "%s %d\n", withLabel(m.name+"_bucket", "le", "+Inf"), cum)
			fmt.Fprintf(&b, "%s_sum %s\n", m.name, fnum(m.h.Sum()))
			fmt.Fprintf(&b, "%s_count %d\n", m.name, cum)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
