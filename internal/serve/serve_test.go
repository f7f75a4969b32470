package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/faultinject"
	"wasmbench/internal/harness"
	"wasmbench/internal/ir"
	"wasmbench/internal/telemetry"
)

// waitGoroutines polls until the goroutine count drops back to base (or
// the deadline passes), then asserts.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutine leak: %d running, baseline %d", n, base)
	}
}

func drain(t *testing.T, s *Server, budget time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// TestServeByteIdentical: the acceptance criterion on measurement
// honesty. A request served by the daemon — including one served from a
// recycled warm-pool instance — reports byte-identical virtual metrics
// (cycles, steps, memory, checksum) to the same cell run one-shot
// through the plain harness path benchtab uses.
func TestServeByteIdentical(t *testing.T) {
	b, err := benchsuite.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	ref := harness.RunCell(harness.Cell{
		Bench: b, Size: benchsuite.XS, Level: ir.O2, Lang: "wasm",
		Profile: browser.Chrome(browser.Desktop),
	})
	if ref.Err != nil {
		t.Fatalf("one-shot reference: %v", ref.Err)
	}

	s := NewServer(Config{Workers: 2, Hub: telemetry.NewHub(0)})
	defer drain(t, s, 10*time.Second)

	req := &Request{Bench: "atax", Size: "XS", Profile: "chrome-desktop"}
	first := s.Submit(req)
	if first.Status != StatusOK {
		t.Fatalf("first request: %+v", first)
	}
	second := s.Submit(req)
	if second.Status != StatusOK {
		t.Fatalf("second request: %+v", second)
	}
	if !second.VMPooled || !second.VMRecycled {
		t.Errorf("second request should be served warm: pooled=%v recycled=%v",
			second.VMPooled, second.VMRecycled)
	}
	if !second.CacheHit {
		t.Error("second request should hit the artifact cache")
	}

	for _, resp := range []*Response{first, second} {
		if resp.ExecMS != ref.Meas.ExecMS || resp.MemoryKB != ref.Meas.MemoryKB {
			t.Errorf("measurement drift: exec %v vs %v, mem %v vs %v",
				resp.ExecMS, ref.Meas.ExecMS, resp.MemoryKB, ref.Meas.MemoryKB)
		}
		r := ref.Meas.Result
		if resp.Cycles != r.Cycles || resp.Steps != r.Steps ||
			resp.MemoryBytes != r.MemoryBytes || resp.MemChecksum != r.MemChecksum {
			t.Errorf("virtual-metric drift: cycles %v/%v steps %d/%d mem %d/%d checksum %#x/%#x",
				resp.Cycles, r.Cycles, resp.Steps, r.Steps,
				resp.MemoryBytes, r.MemoryBytes, resp.MemChecksum, r.MemChecksum)
		}
	}
}

// TestServeSmoke: the overload-safety acceptance criterion, end to end
// over HTTP. A fixed-seed open-loop burst far past queue bound + worker
// count (with injected stalls to keep workers busy) must yield exactly
// (served + shed + timed-out + ...) == submitted — nothing silently
// dropped, nothing hung — while /healthz stays live, and the server must
// drain cleanly afterwards with no goroutine leaks.
func TestServeSmoke(t *testing.T) {
	base := runtime.NumGoroutine()
	const submitted = 48
	plan := faultinject.NewPlan(7, faultinject.Rule{
		Point: faultinject.WasmStall, Count: 6, Stall: 100 * time.Millisecond,
	})
	s := NewServer(Config{
		QueueBound: 4, Workers: 2, Faults: plan,
		Hub: telemetry.NewHub(0),
	})
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	target := "http://" + addr

	// Liveness probe racing the burst: /healthz must answer 200 while the
	// server sheds.
	stopProbe := make(chan struct{})
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		client := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{}}
		defer client.Transport.(*http.Transport).CloseIdleConnections()
		for {
			select {
			case <-stopProbe:
				return
			case <-time.After(20 * time.Millisecond):
			}
			resp, err := client.Get(target + "/healthz")
			if err != nil {
				t.Errorf("/healthz unreachable mid-burst: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/healthz = %d mid-burst", resp.StatusCode)
				return
			}
		}
	}()

	stats, err := RunLoad(LoadOptions{
		Target: target, Rate: 2000, Requests: submitted, Seed: 7,
		Benches: []string{"atax", "bicg", "mvt"}, Sizes: []string{"XS"},
		Profiles: []string{"chrome-desktop", "firefox-desktop"},
	})
	close(stopProbe)
	probeWG.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if stats.TransportErrors != 0 {
		t.Errorf("transport errors: %d", stats.TransportErrors)
	}
	if !stats.Accounted() {
		t.Errorf("accounting violated: submitted=%d terminal=%d transport=%d (%v)",
			stats.Submitted, stats.Terminal(), stats.TransportErrors, stats.ByStatus)
	}
	if stats.ByStatus[StatusShed] == 0 {
		t.Errorf("burst of %d past queue bound 4 never shed: %v", submitted, stats.ByStatus)
	}
	if stats.ByStatus[StatusOK] == 0 {
		t.Errorf("no request served during the burst: %v", stats.ByStatus)
	}
	// Server-side tally agrees with the client's view.
	total := 0
	for _, n := range s.Counts() {
		total += n
	}
	if total != submitted {
		t.Errorf("server counted %d terminal responses, want %d (%v)", total, submitted, s.Counts())
	}

	drain(t, s, 10*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	waitGoroutines(t, base)
}

// TestServeDrainCancelsInFlight: graceful drain under a deadline. A cell
// wedged in an hour-long injected stall is canceled when the drain
// budget expires — the request still gets its terminal (canceled)
// response, post-drain admissions are refused as draining, and no
// goroutines leak.
func TestServeDrainCancelsInFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	plan := faultinject.NewPlan(3, faultinject.Rule{
		Point: faultinject.WasmStall, Count: 1, Stall: time.Hour,
	})
	s := NewServer(Config{
		QueueBound: 4, Workers: 1, Faults: plan,
		DefaultDeadline: time.Hour, // the drain, not the deadline, must cancel it
	})

	respCh := make(chan *Response, 1)
	go func() { respCh <- s.Submit(&Request{Bench: "atax", Size: "XS"}) }()

	deadline := time.Now().Add(5 * time.Second)
	for s.InFlight() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if s.InFlight() != 1 {
		t.Fatal("stalled request never reached a worker")
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("drain did not bound its latency: %v", elapsed)
	}

	select {
	case resp := <-respCh:
		if resp.Status != StatusCanceled {
			t.Errorf("in-flight request status = %q, want %q (%+v)", resp.Status, StatusCanceled, resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never got a terminal response")
	}

	if resp := s.Submit(&Request{Bench: "atax", Size: "XS"}); resp.Status != StatusDraining {
		t.Errorf("post-drain admission status = %q, want %q", resp.Status, StatusDraining)
	}
	waitGoroutines(t, base)
}

// TestServeFaultDrill: the serve.admit / serve.shed injection points
// surface as typed, attributable responses — deterministically under a
// fixed seed, never as hangs. Runs both in-process and over HTTP (the
// HTTP layer must map them to 503 and 429 + Retry-After).
func TestServeFaultDrill(t *testing.T) {
	plan := faultinject.NewPlan(11,
		faultinject.Rule{Point: faultinject.ServeAdmit, Count: 1},
		faultinject.Rule{Point: faultinject.ServeShed, Count: 1},
	)
	s := NewServer(Config{Workers: 1, Faults: plan})
	defer drain(t, s, 10*time.Second)

	req := &Request{Bench: "atax", Size: "XS"}

	first := s.Submit(req)
	if first.Status != StatusRejected || !first.Injected {
		t.Fatalf("drill 1: want injected %s, got %+v", StatusRejected, first)
	}
	if !strings.Contains(first.Error, "faultinject: serve.admit") {
		t.Errorf("drill 1 error not typed: %q", first.Error)
	}

	second := s.Submit(req)
	if second.Status != StatusShed || !second.Injected {
		t.Fatalf("drill 2: want injected %s, got %+v", StatusShed, second)
	}
	if !strings.Contains(second.Error, "faultinject: serve.shed") {
		t.Errorf("drill 2 error not typed: %q", second.Error)
	}

	third := s.Submit(req)
	if third.Status != StatusOK || third.Injected {
		t.Fatalf("drill 3: want uninjected %s once the drills are exhausted, got %+v", StatusOK, third)
	}

	if got := plan.Counts()[faultinject.ServeAdmit]; got != 1 {
		t.Errorf("serve.admit fired %d times, want 1", got)
	}
	if got := plan.Counts()[faultinject.ServeShed]; got != 1 {
		t.Errorf("serve.shed fired %d times, want 1", got)
	}
}

// TestServeFaultDrillHTTP: same drill through the HTTP surface — status
// codes and Retry-After, not just wire structs.
func TestServeFaultDrillHTTP(t *testing.T) {
	plan := faultinject.NewPlan(11,
		faultinject.Rule{Point: faultinject.ServeAdmit, Count: 1},
		faultinject.Rule{Point: faultinject.ServeShed, Count: 1},
	)
	s := NewServer(Config{Workers: 1, Faults: plan})
	defer drain(t, s, 10*time.Second)
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Timeout: time.Minute, Transport: tr}
	post := func() *http.Response {
		t.Helper()
		resp, err := client.Post("http://"+addr+"/run", "application/json",
			strings.NewReader(`{"bench":"atax","size":"XS"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := post(); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("injected admit fault: HTTP %d, want 503", resp.StatusCode)
	}
	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("injected shed: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if resp := post(); resp.StatusCode != http.StatusOK {
		t.Errorf("post-drill request: HTTP %d, want 200", resp.StatusCode)
	}
}

// TestBreakerTripsAndRecovers: consecutive failures trip the per-cell
// breaker (fast-failing subsequent requests), a cooldown admits a probe,
// and a healthy probe closes the breaker again.
func TestBreakerTripsAndRecovers(t *testing.T) {
	// Every compile of the doitgen artifact fails until the rule's budget
	// is spent; other cells are untouched.
	plan := faultinject.NewPlan(13, faultinject.Rule{
		Point: faultinject.CompilerPass, Count: 2, Match: "doitgen",
	})
	s := NewServer(Config{
		Workers: 1, BreakerFailures: 2, BreakerCooldown: 200 * time.Millisecond,
		DisableCache: true, // each request must recompile (and re-fail)
		Faults:       plan,
	})
	defer drain(t, s, 10*time.Second)

	req := &Request{Bench: "doitgen", Size: "XS"}
	for i := 0; i < 2; i++ {
		if resp := s.Submit(req); resp.Status != StatusFailed {
			t.Fatalf("request %d: want %s, got %+v", i, StatusFailed, resp)
		}
	}
	resp := s.Submit(req)
	if resp.Status != StatusBreakerOpen {
		t.Fatalf("post-trip request: want %s, got %+v", StatusBreakerOpen, resp)
	}
	if resp.RetryAfterMS <= 0 {
		t.Error("breaker-open response missing retry-after hint")
	}
	// An unrelated cell is unaffected by doitgen's breaker.
	if other := s.Submit(&Request{Bench: "atax", Size: "XS"}); other.Status != StatusOK {
		t.Errorf("unrelated cell: want ok, got %+v", other)
	}

	time.Sleep(250 * time.Millisecond) // past the cooldown
	// The injected budget (Count: 2) is spent, so the half-open probe
	// compiles cleanly and closes the breaker.
	if probe := s.Submit(req); probe.Status != StatusOK {
		t.Fatalf("half-open probe: want ok, got %+v", probe)
	}
	if after := s.Submit(req); after.Status != StatusOK {
		t.Errorf("post-recovery request: want ok, got %+v", after)
	}
}

// TestBreakerPerToolchain: the breaker is keyed by cell label, and the
// label names the toolchain, so tripping an Emscripten cell's breaker
// leaves the Cheerp build of the same kernel admitted.
func TestBreakerPerToolchain(t *testing.T) {
	// Every Emscripten compile fails; Cheerp compiles are untouched.
	plan := faultinject.NewPlan(13, faultinject.Rule{
		Point: faultinject.CompilerPass, Prob: 1, Match: "/emscripten@",
	})
	s := NewServer(Config{
		Workers: 1, BreakerFailures: 2, BreakerCooldown: time.Minute,
		DisableCache: true, Faults: plan,
	})
	defer drain(t, s, 10*time.Second)

	em := &Request{Bench: "doitgen", Size: "XS", Toolchain: "emscripten"}
	for i := 0; i < 2; i++ {
		if resp := s.Submit(em); resp.Status != StatusFailed {
			t.Fatalf("emscripten request %d: want %s, got %+v", i, StatusFailed, resp)
		}
	}
	if resp := s.Submit(em); resp.Status != StatusBreakerOpen {
		t.Fatalf("post-trip emscripten request: want %s, got %+v", StatusBreakerOpen, resp)
	}
	ch := s.Submit(&Request{Bench: "doitgen", Size: "XS"})
	if ch.Status != StatusOK {
		t.Errorf("cheerp request after the emscripten trip: want ok, got %+v", ch)
	}
}

// TestSubmitRejectsX86: x86 is a harness cell lang for the paper tables,
// not a served backend; a request naming it is invalid and never admitted.
func TestSubmitRejectsX86(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer drain(t, s, 10*time.Second)
	if resp := s.Submit(&Request{Bench: "atax", Size: "XS", Lang: "x86"}); resp.Status != StatusInvalid {
		t.Errorf("x86 request: want %s, got %+v", StatusInvalid, resp)
	}
}

// TestAdmitCountsJobBeforeWorker: a job must be counted in the drain
// WaitGroup before a worker can claim it. A worker that finishes a job
// first (here every job fast-fails on an open breaker) would otherwise
// drive the counter negative and panic the server.
func TestAdmitCountsJobBeforeWorker(t *testing.T) {
	plan := faultinject.NewPlan(13, faultinject.Rule{
		Point: faultinject.CompilerPass, Count: 1, Match: "doitgen",
	})
	s := NewServer(Config{
		Workers: 4, QueueBound: 1024, BreakerFailures: 1, BreakerCooldown: time.Hour,
		DisableCache: true, Faults: plan,
	})
	defer drain(t, s, 10*time.Second)
	req := &Request{Bench: "doitgen", Size: "XS"}
	if resp := s.Submit(req); resp.Status != StatusFailed {
		t.Fatalf("tripping request: want %s, got %+v", StatusFailed, resp)
	}

	const clients, perClient = 8, 2000
	var wg sync.WaitGroup
	bad := make(chan *Response, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if resp := s.Submit(req); resp.Status != StatusBreakerOpen && resp.Status != StatusShed {
					bad <- resp
					return
				}
			}
		}()
	}
	wg.Wait()
	close(bad)
	for resp := range bad {
		t.Errorf("want %s or %s, got %+v", StatusBreakerOpen, StatusShed, resp)
	}
}

// TestLoadgenDeterministicSchedule: two RunLoad calls with one seed
// submit the identical cell sequence (the arrival schedule is a pure
// function of the seed), proven indirectly: all requests land and the
// accounting identity holds for both.
func TestLoadgenAccounting(t *testing.T) {
	s := NewServer(Config{QueueBound: 8, Workers: 2})
	defer drain(t, s, 10*time.Second)
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	stats, err := RunLoad(LoadOptions{
		Target: "http://" + addr, Rate: 500, Requests: 24, Seed: 42,
		Benches: []string{"atax", "bicg"}, Sizes: []string{"XS"},
		Profiles: []string{"chrome-desktop"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Accounted() {
		t.Errorf("accounting violated: %+v", stats)
	}
	if stats.ByStatus[StatusOK] == 0 {
		t.Errorf("nothing served: %v", stats.ByStatus)
	}
}

// TestServeTraceWindow: benchserve's /debug/trace serves the requests it
// ran. Every request's cell events reach the hub's flight window, and a
// failed request freezes a failure dump that ?which=failure serves.
func TestServeTraceWindow(t *testing.T) {
	hub := telemetry.NewHub(0)
	get := func(s *Server, path string) (int, string) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}

	const n = 3
	ok := NewServer(Config{Workers: 1, Hub: hub})
	for i := 0; i < n; i++ {
		if resp := ok.Submit(&Request{Bench: "atax", Size: "XS"}); resp.Status != StatusOK {
			t.Fatalf("request: %+v", resp)
		}
	}
	drain(t, ok, 10*time.Second)
	code, body := get(ok, "/debug/trace")
	if code != 200 {
		t.Fatalf("/debug/trace = %d", code)
	}
	if got := strings.Count(body, `"cat":"cell","ph":"X"`); got != n {
		t.Fatalf("/debug/trace holds %d cell-done events after %d requests:\n%s", got, n, body)
	}
	if code, _ := get(ok, "/debug/trace?which=failure"); code != 404 {
		t.Fatalf("failure trace before any failure = %d, want 404", code)
	}

	// A step limit far below the kernel's work fails the request.
	bad := NewServer(Config{Workers: 1, Hub: hub, StepLimit: 10})
	if resp := bad.Submit(&Request{Bench: "atax", Size: "XS"}); resp.Status != StatusFailed {
		t.Fatalf("step-limited request: %+v", resp)
	}
	drain(t, bad, 10*time.Second)
	if code, body := get(bad, "/debug/trace?which=failure"); code != 200 || !strings.Contains(body, "atax") {
		t.Fatalf("failure trace = %d:\n%s", code, body)
	}
	if dump, _ := hub.LastDump(); dump == nil || !strings.Contains(dump.Reason, "step limit") {
		t.Fatalf("failure dump = %+v, want the step-limit error as its reason", dump)
	}
}
