package serve

// benchserve's engine: a long-running, overload-safe benchmark service on
// top of the existing measurement stack. The flow is
//
//	admission → bounded queue → worker group → ArtifactCache + VMPools
//	                                           → one guarded harness run
//
// with three robustness properties the tests pin down:
//
//  1. Every request gets exactly one terminal response — admitted or not,
//     overloaded or not, draining or not. Overload is shed explicitly
//     (429 + Retry-After) at admission; nothing is silently dropped and
//     nothing hangs.
//  2. Deadlines and drain are cooperative cancelation: each request
//     carries a context from admission to the VM stall it may die in,
//     so a SIGTERM drain bounds its own latency by canceling in-flight
//     cells rather than waiting them out.
//  3. Measurement honesty: a request served from the warm pool reports
//     byte-identical virtual metrics to the same cell run one-shot,
//     because the worker path *is* harness.RunCellsWith over the shared
//     cache/pool substrate — there is no separate serving execution path
//     to drift.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"wasmbench/internal/browser"
	"wasmbench/internal/faultinject"
	"wasmbench/internal/harness"
	"wasmbench/internal/obsv"
	"wasmbench/internal/telemetry"
)

// Config configures a Server. The zero value is serviceable: defaults are
// resolved by NewServer.
type Config struct {
	// QueueBound caps admitted-but-unclaimed requests; past it, requests
	// are shed with 429 + Retry-After. <=0 selects 64.
	QueueBound int
	// Workers is the concurrent execution limit. <=0 selects the harness
	// default (min(NumCPU, 8)).
	Workers int
	// DefaultDeadline applies to requests that set no deadline_ms;
	// <=0 selects 30s.
	DefaultDeadline time.Duration
	// MaxDeadline caps any request deadline; <=0 selects 2m.
	MaxDeadline time.Duration
	// RetryAfter is the hint attached to shed responses; <=0 selects 1s.
	RetryAfter time.Duration

	// StepLimit is the per-measurement dynamic instruction budget
	// forwarded to the harness; 0 keeps the profile's setting.
	StepLimit uint64

	// BreakerFailures trips a cell's circuit breaker after that many
	// consecutive failed (not canceled) requests; 0 disables breakers.
	BreakerFailures int
	// BreakerCooldown is how long a tripped breaker refuses before its
	// half-open probe; <=0 selects 5s.
	BreakerCooldown time.Duration

	// DisableCache cold-compiles every request.
	DisableCache bool

	// Faults is the deterministic fault plan, shared by the admission
	// drills (serve.admit, serve.shed) and the per-cell execution faults.
	// nil is fully inert.
	Faults *faultinject.Plan
	// Hub, when set, receives serve_* instruments, the "serve" state
	// provider (/debug/serve), every request's cell events in its flight
	// window, and a failure dump for every failed or timed-out request,
	// and makes the full telemetry surface available under the server's
	// mux. nil disables telemetry.
	Hub *telemetry.Hub
	// Checkpoint, when set, records every successful cell and serves
	// repeat requests from the checkpoint on restart.
	Checkpoint *harness.Checkpoint
}

func (c Config) withDefaults() Config {
	if c.QueueBound <= 0 {
		c.QueueBound = 64
	}
	if c.Workers <= 0 {
		c.Workers = harness.DefaultWorkers()
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// job is one admitted request riding the queue.
type job struct {
	req    *Request
	cell   harness.Cell
	label  string
	ctx    context.Context // deadline starts at admission
	cancel context.CancelFunc
	enq    time.Time
	done   chan *Response // 1-buffered: the worker's send never blocks
}

// Server executes benchmark requests behind admission control. Create
// with NewServer; it is immediately ready for Submit (in-process) or
// Handler/Serve (HTTP).
type Server struct {
	cfg      Config
	cache    *harness.ArtifactCache
	pools    *harness.VMPools
	profiles map[string]*browser.Profile
	inst     *telemetry.ServeInstruments
	breakers *breakerSet

	queue   chan *job
	jobs    sync.WaitGroup // admitted jobs not yet answered
	workers sync.WaitGroup

	runCtx      context.Context // parent of every job context
	cancelRuns  context.CancelFunc
	stopWorkers chan struct{}
	stopOnce    sync.Once

	mu       sync.Mutex
	draining bool
	inFlight int
	counts   map[string]int
	started  time.Time

	ln  net.Listener
	srv *http.Server
}

// NewServer builds the server and starts its worker group.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		profiles:    make(map[string]*browser.Profile),
		queue:       make(chan *job, cfg.QueueBound),
		stopWorkers: make(chan struct{}),
		counts:      make(map[string]int),
		started:     time.Now(),
	}
	s.runCtx, s.cancelRuns = context.WithCancel(context.Background())
	if !cfg.DisableCache {
		s.cache = harness.NewArtifactCache()
	}
	var reg *telemetry.Registry
	if cfg.Hub != nil {
		reg = cfg.Hub.Registry()
		s.inst = telemetry.NewServeInstruments(reg)
		cfg.Hub.Publish("serve", s.state)
	}
	s.pools = harness.NewVMPools(reg, s.cache)
	// One profile instance per name, shared across requests — the same
	// sharing a benchtab sweep uses across its worker pool. Instruments
	// attach once here; they never alter virtual metrics.
	for _, p := range browser.AllProfiles() {
		if reg != nil {
			p.SetInstruments(reg)
		}
		s.profiles[p.Name()] = p
	}
	s.breakers = newBreakerSet(cfg.BreakerFailures, cfg.BreakerCooldown)
	for w := 0; w < cfg.Workers; w++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// incCount tallies a terminal status (for /debug/serve and the tests'
// accounting identity).
func (s *Server) incCount(status string) {
	s.mu.Lock()
	s.counts[status]++
	s.mu.Unlock()
}

// Counts returns a copy of the per-status terminal-response tallies.
func (s *Server) Counts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// Submit runs one request to a terminal response, blocking the caller
// (the HTTP handler, or a test driving the server in-process). It never
// returns nil and never hangs past the request's deadline plus scheduling
// slack.
func (s *Server) Submit(req *Request) *Response {
	if s.inst != nil {
		s.inst.Requests.Inc()
	}
	cell, err := req.cell(s.profiles)
	if err != nil {
		resp := &Response{Status: StatusInvalid, Error: err.Error()}
		s.incCount(StatusInvalid)
		return resp
	}
	j, resp := s.admit(req, cell)
	if resp != nil {
		s.incCount(resp.Status)
		return resp
	}
	resp = <-j.done
	s.incCount(resp.Status)
	return resp
}

// admit decides a request's fate at the door: draining and injected
// admission faults refuse it, a full queue sheds it, otherwise it joins
// the queue with its deadline clock already running. The draining check,
// fault drills, queue reservation, and jobs.Add all happen under one
// lock so a concurrent Drain can never observe an admitted job it will
// not wait for.
func (s *Server) admit(req *Request, cell harness.Cell) (*job, *Response) {
	label := cell.Label()
	retryMS := s.cfg.RetryAfter.Milliseconds()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, &Response{Status: StatusDraining, Cell: label,
			Error: "server is draining", RetryAfterMS: retryMS}
	}
	// Admission drills: deterministic injected faults that must surface
	// as typed responses, never hangs. serve.admit models a broken
	// admission dependency (503), serve.shed a spurious overload signal
	// (429), both attributable via Injected.
	if s.cfg.Faults != nil {
		if s.cfg.Faults.Fire(faultinject.ServeAdmit, label) {
			s.mu.Unlock()
			err := faultinject.Errorf(faultinject.ServeAdmit, "admission refused for %s", label)
			if s.inst != nil {
				s.inst.Rejected.Inc()
			}
			return nil, &Response{Status: StatusRejected, Cell: label,
				Error: err.Error(), Injected: true, RetryAfterMS: retryMS}
		}
		if s.cfg.Faults.Fire(faultinject.ServeShed, label) {
			s.mu.Unlock()
			err := faultinject.Errorf(faultinject.ServeShed, "forced shed for %s", label)
			if s.inst != nil {
				s.inst.Shed.Inc()
			}
			return nil, &Response{Status: StatusShed, Cell: label,
				Error: err.Error(), Injected: true, RetryAfterMS: retryMS}
		}
	}
	ctx, cancel := context.WithTimeout(s.runCtx, req.deadline(s.cfg.DefaultDeadline, s.cfg.MaxDeadline))
	j := &job{
		req: req, cell: cell, label: label,
		ctx: ctx, cancel: cancel,
		enq:  time.Now(),
		done: make(chan *Response, 1),
	}
	// Count the job before a worker can see it: a worker that finished it
	// before a late Add would drive the counter negative.
	s.jobs.Add(1)
	select {
	case s.queue <- j:
		s.mu.Unlock()
		if s.inst != nil {
			s.inst.Admitted.Inc()
			s.inst.QueueDepth.Set(float64(len(s.queue)))
		}
		return j, nil
	default:
		s.jobs.Done()
		s.mu.Unlock()
		cancel()
		if s.inst != nil {
			s.inst.Shed.Inc()
		}
		return nil, &Response{Status: StatusShed, Cell: label,
			Error:        fmt.Sprintf("queue full (%d waiting)", s.cfg.QueueBound),
			RetryAfterMS: retryMS}
	}
}

// worker claims queued jobs until the server stops. The stop channel is
// only closed after jobs.Wait() returns, so no admitted job is ever left
// unclaimed.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case j := <-s.queue:
			s.handle(j)
		case <-s.stopWorkers:
			return
		}
	}
}

// handle runs one job to its terminal response.
func (s *Server) handle(j *job) {
	defer s.jobs.Done()
	defer j.cancel()
	queueWait := time.Since(j.enq)
	if s.inst != nil {
		s.inst.QueueDepth.Set(float64(len(s.queue)))
		s.inst.QueueWait.Observe(queueWait.Seconds())
	}
	finish := func(resp *Response) {
		resp.Cell = j.label
		resp.QueueMS = float64(queueWait) / float64(time.Millisecond)
		if resp.Status == StatusFailed || resp.Status == StatusTimeout {
			// Freeze the trace window that led up to the failure;
			// /debug/trace?which=failure serves it.
			s.cfg.Hub.DumpFlight(j.label + ": " + resp.Error)
		}
		j.done <- resp
	}

	// The deadline clock ran while the job was queued; a request that
	// expired waiting is a timeout (or drain cancelation) without ever
	// occupying a worker.
	if err := j.ctx.Err(); err != nil {
		resp := &Response{Status: StatusCanceled, Error: err.Error()}
		if errors.Is(err, context.DeadlineExceeded) {
			resp.Status = StatusTimeout
		}
		s.observeTerminal(resp.Status)
		finish(resp)
		return
	}

	if ok, retryAfter := s.breakers.allow(j.label); !ok {
		if s.inst != nil {
			s.inst.BreakerOpen.Inc()
		}
		finish(&Response{Status: StatusBreakerOpen,
			Error:        "circuit breaker open for " + j.label,
			RetryAfterMS: retryAfter.Milliseconds()})
		return
	}

	s.mu.Lock()
	s.inFlight++
	s.mu.Unlock()
	if s.inst != nil {
		s.inst.InFlight.Add(1)
	}
	t0 := time.Now()
	res, m := harness.RunCellsWith([]harness.Cell{j.cell}, harness.RunOptions{
		Workers:       1,
		Context:       j.ctx,
		Cache:         s.cache,
		DisableCache:  s.cfg.DisableCache,
		SharedVMPools: s.pools,
		StepLimit:     s.cfg.StepLimit,
		Faults:        s.cfg.Faults,
		Checkpoint:    s.cfg.Checkpoint,
		// Cell events feed the hub's flight window (/debug/trace).
		// Telemetry stays unset: every one-cell request would republish
		// /debug/cells over the last.
		Tracer: s.cfg.Hub.Tracer(),
	})
	runWall := time.Since(t0)
	s.mu.Lock()
	s.inFlight--
	s.mu.Unlock()
	if s.inst != nil {
		s.inst.InFlight.Add(-1)
		s.inst.RunWall.Observe(runWall.Seconds())
	}

	resp := s.classify(res[0], m.Cells[0])
	resp.RunMS = float64(runWall) / float64(time.Millisecond)
	s.observeTerminal(resp.Status)
	// Canceled says nothing about the cell's health; everything else does.
	if resp.Status != StatusCanceled {
		s.breakers.report(j.label, resp.Status != StatusOK)
	}
	finish(resp)
}

// classify maps a harness result onto the response wire type.
func (s *Server) classify(r harness.CellResult, cm obsv.CellMetric) *Response {
	resp := &Response{
		CacheHit: cm.CacheHit, VMPooled: cm.VMPooled,
	}
	switch {
	case r.Err == nil:
		resp.Status = StatusOK
		if r.Meas != nil {
			resp.ExecMS = r.Meas.ExecMS
			resp.MemoryKB = r.Meas.MemoryKB
			if r.Meas.Result != nil {
				resp.Cycles = r.Meas.Result.Cycles
				resp.Steps = r.Meas.Result.Steps
				resp.MemoryBytes = r.Meas.Result.MemoryBytes
				resp.MemChecksum = r.Meas.Result.MemChecksum
			}
		}
	case errors.Is(r.Err, harness.ErrCellDeadline):
		resp.Status = StatusTimeout
		resp.Error = r.Err.Error()
	case errors.Is(r.Err, harness.ErrCellCanceled):
		resp.Status = StatusCanceled
		resp.Error = r.Err.Error()
	default:
		resp.Status = StatusFailed
		resp.Error = r.Err.Error()
		resp.Injected = faultinject.IsInjected(r.Err)
	}
	return resp
}

// observeTerminal bumps the terminal-outcome instruments.
func (s *Server) observeTerminal(status string) {
	if s.inst == nil {
		return
	}
	switch status {
	case StatusOK:
		s.inst.Served.Inc()
	case StatusFailed:
		s.inst.Failed.Inc()
	case StatusTimeout:
		s.inst.Timeouts.Inc()
	case StatusCanceled:
		s.inst.Canceled.Inc()
	}
}

// Drain gracefully stops the server: new admissions are refused with
// StatusDraining immediately, queued and in-flight jobs run to their
// terminal responses, and when ctx expires first the remaining jobs are
// canceled (each still gets its terminal — canceled — response). Workers
// exit before Drain returns. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Out of patience: cancel every in-flight and queued job. Their
		// workers observe the cancelation promptly (injected stalls abort,
		// pool waits wake) and still deliver terminal responses.
		s.cancelRuns()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			err = fmt.Errorf("serve: drain: jobs outstanding after cancelation")
		}
	}
	s.stopOnce.Do(func() { close(s.stopWorkers) })
	if err == nil {
		s.workers.Wait()
	}
	s.cancelRuns()
	return err
}

// InFlight reports how many requests are currently executing.
func (s *Server) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inFlight
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// state is the "serve" telemetry provider (/debug/serve).
func (s *Server) state() any {
	breakers, trips := s.breakers.snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	return map[string]any{
		"uptime_seconds": time.Since(s.started).Seconds(),
		"draining":       s.draining,
		"queue_depth":    len(s.queue),
		"queue_bound":    s.cfg.QueueBound,
		"workers":        s.cfg.Workers,
		"in_flight":      s.inFlight,
		"counts":         s.counts,
		"breakers":       breakers,
		"breaker_trips":  trips,
		"vm_pools":       s.pools.PoolCount(),
	}
}

// Handler returns the server's HTTP surface: POST /run, GET /healthz,
// and — when a Hub is configured — the full telemetry surface
// (/metrics, /debug/trace, /debug/profile, /debug/serve, ...).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeResponse(w, &Response{Status: StatusInvalid, Error: "bad request body: " + err.Error()})
			return
		}
		writeResponse(w, s.Submit(&req))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness stays green during overload and drain: shedding is the
		// server doing its job, not the server being down.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Draining() {
			fmt.Fprintln(w, "ok (draining)")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	if s.cfg.Hub != nil {
		mux.Handle("/", telemetry.Handler(s.cfg.Hub))
	}
	return mux
}

func writeResponse(w http.ResponseWriter, resp *Response) {
	if resp.RetryAfterMS > 0 {
		secs := (resp.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.HTTPStatus())
	_ = json.NewEncoder(w).Encode(resp)
}

// Serve binds addr (":0" picks a free port) and serves the handler until
// Shutdown. It returns the bound address once the listener is live.
func (s *Server) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.srv = &http.Server{
		Handler: s.Handler(),
		// A request's total latency is bounded by MaxDeadline (its context
		// starts at admission, covering queue wait), so the write budget
		// only needs slack on top of that.
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      s.cfg.MaxDeadline + 30*time.Second,
		IdleTimeout:       60 * time.Second,
	}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown stops the HTTP listener after in-flight handlers finish, up
// to ctx's deadline (then hard-closes). Call Drain first: Shutdown does
// not touch the execution pipeline.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.srv == nil {
		return nil
	}
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}
