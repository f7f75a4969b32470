// Package faultinject is a deterministic, seeded fault-plan layer for the
// measurement stack. The paper's methodology depends on sweeps surviving
// hostile conditions — cells wedge, the JS heap runs out, compiles fail,
// workers crash, a server is overloaded — and a harness that claims to
// tolerate those failures needs a way to produce them on demand,
// reproducibly (cf. Jangda et al., "Not So Fast", ATC '19, on explicit
// resource limits and failure accounting in cross-engine harnesses). A
// fault either leaves a cell's measurement byte-identical to its clean run
// or fails the cell with an error IsInjected accepts; none re-routes a
// measurement to a configuration its label does not name.
//
// A Plan is a set of Rules armed at named injection Points threaded through
// the VMs, the compiler driver, the harness worker pool and the serve
// admission path. Every decision
// is a pure function of (seed, point, key, sequence number), so the same
// plan replayed over the same workload fires the same faults in the same
// order — which is what makes the harness's failure accounting testable.
// A nil *Plan is inert: every method on it returns the zero decision, so
// call sites pay one nil check and the zero-fault path stays byte-identical
// to a build without fault injection.
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point names one injection site in the stack.
type Point string

// Injection points. Each simulates a failure that can happen without a
// plan and that no other test reaches: a point that would only re-route a
// measurement (to another tier or a cold instance) or copy a failure the
// engines produce on their own (a Config.MaxPages grow cap) has no place
// here.
const (
	// WasmStall blocks the calling goroutine for Rule.Stall wall-clock time
	// on function entry — the "wedged cell" the harness deadline must catch.
	WasmStall Point = "wasm.stall"
	// JSHeapOOM aborts a JS allocation: with Rule.Limit it is a heap byte
	// cap, with Prob/Count a transient allocation failure. The engine
	// reports ErrJSOOM, the analogue of a tab OOM kill.
	JSHeapOOM Point = "js.heap-oom"
	// CompilerPass fails a compilation in the optimization pipeline with an
	// InjectedError (never cached, so a later compile of the same artifact
	// runs the pipeline again).
	CompilerPass Point = "compiler.pass"
	// HarnessPanic panics inside a harness worker while it runs a cell,
	// exercising the worker recover() path.
	HarnessPanic Point = "harness.worker-panic"
	// ServeAdmit fails benchserve admission of a request with a typed
	// InjectedError (surfaced as a 503 response, never a hang) —
	// the "admission controller broke" drill.
	ServeAdmit Point = "serve.admit"
	// ServeShed force-sheds a request at benchserve admission as if the
	// queue were full (429 + Retry-After), exercising the load-shedding
	// response path without needing a real overload.
	ServeShed Point = "serve.shed"
)

// AllPoints lists every injection point. The harness faults-smoke drill
// fires each non-serve point; the serve.* points are drilled by the
// internal/serve fault tests, since the harness sweep has no admission
// path.
var AllPoints = []Point{
	WasmStall, JSHeapOOM,
	CompilerPass, HarnessPanic,
	ServeAdmit, ServeShed,
}

// Rule arms one injection point. Exactly one firing mode should be set:
//
//   - Count (with optional Skip): fire checks Skip..Skip+Count-1 of each
//     (point, key) sequence — the deterministic "fail the first N times"
//     transient fault.
//   - Prob: fire each check independently with this probability, seeded by
//     the plan (0 < Prob ≤ 1).
//   - Limit: a byte cap for JSHeapOOM (abort any allocation that would
//     push the live heap past Limit bytes). Limit rules fire on every
//     violating check.
type Rule struct {
	Point Point
	Prob  float64
	Skip  int
	Count int
	Limit uint64
	// Stall is the wall-clock block duration for WasmStall rules.
	Stall time.Duration
	// Match restricts the rule to checks whose full key (cell context +
	// site key) contains this substring; "" matches everything.
	Match string
}

// Record is one fired fault, in firing order.
type Record struct {
	Point Point
	// Key is the full decision key: "cellLabel|siteKey" under a derived
	// cell plan, or just the site key on the root plan.
	Key string
	// Seq is the zero-based check sequence number at which the rule fired
	// (threshold firings reuse the current sequence position).
	Seq uint64
}

func (r Record) String() string {
	return fmt.Sprintf("%s[%s]#%d", r.Point, r.Key, r.Seq)
}

// planState is the mutable decision state shared by a root plan and every
// cell plan derived from it.
type planState struct {
	mu      sync.Mutex
	seq     map[string]uint64
	records []Record
	counts  map[Point]int
}

// Plan is an armed fault plan. The zero-value-free constructor is NewPlan;
// a nil *Plan is valid and inert. Derived cell plans (see Cell) share the
// root's rules, counters, and record log, so firing order is global.
// Safe for concurrent use.
type Plan struct {
	seed   uint64
	rules  map[Point][]Rule
	state  *planState
	ctx    string          // cell-context prefix for decision keys
	cancel <-chan struct{} // aborts in-flight stalls (per-cell deadline)
}

// NewPlan builds a plan from a seed and a rule set. Rules for the same
// point are checked in order; the check fires if any of them does.
func NewPlan(seed uint64, rules ...Rule) *Plan {
	m := make(map[Point][]Rule)
	for _, r := range rules {
		m[r.Point] = append(m[r.Point], r)
	}
	return &Plan{
		seed:  seed,
		rules: m,
		state: &planState{seq: make(map[string]uint64), counts: make(map[Point]int)},
	}
}

// Enabled reports whether the plan has any armed rules.
func (p *Plan) Enabled() bool { return p != nil && len(p.rules) > 0 }

// Cell derives a per-cell view of the plan: decision keys are prefixed
// with label (so rules can Match individual cells and counters are
// per-cell), and in-flight stalls abort when cancel is closed. The derived
// plan shares the root's state; records land in one global log.
func (p *Plan) Cell(label string, cancel <-chan struct{}) *Plan {
	if p == nil {
		return nil
	}
	return &Plan{seed: p.seed, rules: p.rules, state: p.state, ctx: label, cancel: cancel}
}

// key builds the full decision key for a site key.
func (p *Plan) key(site string) string {
	if p.ctx == "" {
		return site
	}
	return p.ctx + "|" + site
}

// Fire checks point with the given site key, advancing the (point, key)
// sequence counter by one. It reports whether any armed Prob/Count rule
// fired (Limit rules are checked only by HeapOOM). Nil-safe.
func (p *Plan) Fire(pt Point, site string) bool {
	fired, _ := p.check(pt, site, 0)
	return fired
}

// HeapOOM decides whether an allocation that would raise the live heap to
// bytes should fail: Limit rules fire when bytes exceeds Limit; Prob/Count
// rules fire per the seeded sequence.
func (p *Plan) HeapOOM(site string, bytes uint64) bool {
	if p == nil || len(p.rules[JSHeapOOM]) == 0 {
		return false
	}
	fired, _ := p.check(JSHeapOOM, site, bytes)
	return fired
}

// Stall checks the WasmStall point and, if a rule fires, blocks for the
// rule's Stall duration or until the plan's cancel channel closes,
// whichever comes first. It returns whether a stall fired (the block may
// have been cancelled).
func (p *Plan) Stall(site string) bool {
	if p == nil || len(p.rules[WasmStall]) == 0 {
		return false
	}
	fired, d := p.check(WasmStall, site, 0)
	if !fired {
		return false
	}
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-p.cancel: // nil channel: blocks forever, timer path decides
	}
	return true
}

// check runs the decision procedure: advance the sequence counter for
// (point, full key), evaluate every matching rule, and record a firing.
// measure carries the capacity value for Limit rules (the resulting heap
// bytes for JSHeapOOM); it is ignored by Prob/Count rules. The returned
// duration is the longest Stall among the rules that fired.
func (p *Plan) check(pt Point, site string, measure uint64) (bool, time.Duration) {
	if p == nil {
		return false, 0
	}
	rules := p.rules[pt]
	key := p.key(site)
	sk := string(pt) + "\x00" + key

	st := p.state
	st.mu.Lock()
	n := st.seq[sk]
	st.seq[sk] = n + 1
	fired := false
	var stall time.Duration
	for i := range rules {
		r := &rules[i]
		if r.Match != "" && !strings.Contains(key, r.Match) {
			continue
		}
		hit := false
		switch {
		case r.Limit > 0:
			hit = measure > r.Limit
		case r.Count > 0:
			hit = n >= uint64(r.Skip) && n < uint64(r.Skip)+uint64(r.Count)
		case r.Prob > 0:
			hit = hash01(p.seed, pt, key, n, uint64(i)) < r.Prob
		}
		if hit {
			fired = true
			if r.Stall > stall {
				stall = r.Stall
			}
		}
	}
	if fired {
		st.records = append(st.records, Record{Point: pt, Key: key, Seq: n})
		st.counts[pt]++
	}
	st.mu.Unlock()
	return fired, stall
}

// Records returns a snapshot of every fired fault in firing order. With a
// single-threaded workload (harness Workers: 1) the order is fully
// deterministic; with concurrent workers, use Counts for scheduling-stable
// assertions.
func (p *Plan) Records() []Record {
	if p == nil {
		return nil
	}
	p.state.mu.Lock()
	defer p.state.mu.Unlock()
	return append([]Record(nil), p.state.records...)
}

// Counts returns the number of firings per point (scheduling-independent
// for plans whose decisions are, e.g. Count rules keyed by cell).
func (p *Plan) Counts() map[Point]int {
	if p == nil {
		return nil
	}
	p.state.mu.Lock()
	defer p.state.mu.Unlock()
	out := make(map[Point]int, len(p.state.counts))
	for k, v := range p.state.counts {
		out[k] = v
	}
	return out
}

// TotalFired returns the total number of fired faults.
func (p *Plan) TotalFired() int {
	if p == nil {
		return 0
	}
	p.state.mu.Lock()
	defer p.state.mu.Unlock()
	return len(p.state.records)
}

// InjectedError marks an error as fault-injected. Consumers that must not
// persist injected failures (the harness artifact cache) detect it with
// IsInjected.
type InjectedError struct {
	Point Point
	Msg   string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: %s: %s", e.Point, e.Msg)
}

// Errorf builds an InjectedError.
func Errorf(pt Point, format string, args ...any) error {
	return &InjectedError{Point: pt, Msg: fmt.Sprintf(format, args...)}
}

// IsInjected reports whether err is (or wraps) an injected fault.
func IsInjected(err error) bool {
	var e *InjectedError
	return errors.As(err, &e)
}

// splitmix64 finalizer: the avalanche mix behind every seeded decision
// (same generator family as the difftest program generator).
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fnv1a hashes a string to 64 bits.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// hash01 maps (seed, point, key, seq, rule index) to [0, 1).
func hash01(seed uint64, pt Point, key string, n, rule uint64) float64 {
	h := mix64(seed ^ fnv1a(string(pt)))
	h = mix64(h ^ fnv1a(key))
	h = mix64(h ^ n ^ rule<<32)
	return float64(h>>11) / (1 << 53)
}

// ParseSpec parses a compact rule-list syntax for CLI flags:
//
//	point:param=val[,param=val][;point:...]
//
// Params: prob (float), count (int), skip (int), limit (uint), stall
// (Go duration), match (string). Example:
//
//	wasm.stall:count=2,stall=100ms;js.heap-oom:limit=1048576;harness.worker-panic:prob=0.05
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		pt, params, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("faultinject: rule %q: want point:param=val,...", part)
		}
		if !validPoint(Point(pt)) {
			return nil, fmt.Errorf("faultinject: unknown point %q (known: %s)", pt, knownPoints())
		}
		r := Rule{Point: Point(pt)}
		for _, kv := range strings.Split(params, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: rule %q: bad param %q", part, kv)
			}
			var err error
			switch k {
			case "prob":
				r.Prob, err = strconv.ParseFloat(v, 64)
				if err == nil && (r.Prob <= 0 || r.Prob > 1) {
					err = fmt.Errorf("prob out of (0,1]")
				}
			case "count":
				r.Count, err = strconv.Atoi(v)
			case "skip":
				r.Skip, err = strconv.Atoi(v)
			case "limit":
				r.Limit, err = strconv.ParseUint(v, 10, 64)
			case "stall":
				r.Stall, err = time.ParseDuration(v)
			case "match":
				r.Match = v
			default:
				err = fmt.Errorf("unknown param %q", k)
			}
			if err != nil {
				return nil, fmt.Errorf("faultinject: rule %q: %s: %w", part, k, err)
			}
		}
		if r.Prob == 0 && r.Count == 0 && r.Limit == 0 {
			return nil, fmt.Errorf("faultinject: rule %q: needs prob=, count= or limit=", part)
		}
		rules = append(rules, r)
	}
	return rules, nil
}

func validPoint(pt Point) bool {
	for _, p := range AllPoints {
		if p == pt {
			return true
		}
	}
	return false
}

func knownPoints() string {
	names := make([]string, len(AllPoints))
	for i, p := range AllPoints {
		names[i] = string(p)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}
