package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/compiler"
	"wasmbench/internal/harness"
	"wasmbench/internal/ir"
	"wasmbench/internal/serve"
	"wasmbench/internal/telemetry"
)

// clients is the closed loop's concurrency: client goroutines, HTTP
// connections and server workers alike. With clients == workers no queue
// builds, so latency measures service, not queueing.
const clients = 2

const (
	warmPasses     = 2  // serve-warm passes over the kernels per round (one wall_s sample)
	warmSetups     = 5  // serve-warm set-ups per run; setup_s is their median
	coldRoundSize  = 32 // serve-cold requests per round, each round on a fresh server
	tracedWarmRnds = 3  // serve-warm rounds in a traced run
	tracedColdRnds = 6  // serve-cold rounds in a traced run
)

// requestCell decodes a request into the harness cell the server runs for
// it, resolving the profile against profs.
func requestCell(req serve.Request, profs map[string]*browser.Profile) (harness.Cell, error) {
	b, err := benchsuite.ByName(req.Bench)
	if err != nil {
		return harness.Cell{}, err
	}
	size := -1
	for _, s := range benchsuite.AllSizes {
		if s.String() == req.Size {
			size = int(s)
		}
	}
	if size < 0 {
		return harness.Cell{}, fmt.Errorf("unknown size %q", req.Size)
	}
	level, err := ir.ParseOptLevel(req.Level)
	if err != nil {
		return harness.Cell{}, err
	}
	tc := compiler.Cheerp
	if req.Toolchain == "emscripten" {
		tc = compiler.Emscripten
	}
	p := profs[req.Profile]
	if p == nil {
		return harness.Cell{}, fmt.Errorf("unknown profile %q", req.Profile)
	}
	return harness.Cell{Bench: b, Size: benchsuite.Size(size), Level: level,
		Lang: req.Lang, Profile: p, Toolchain: tc}, nil
}

func profileTable() map[string]*browser.Profile {
	m := map[string]*browser.Profile{}
	for _, p := range browser.AllProfiles() {
		m[p.Name()] = p
	}
	return m
}

// server is one in-process serve.Server listening on loopback, with the
// client connections that drive it.
type server struct {
	s      *serve.Server
	url    string
	tr     *http.Transport
	client *http.Client
}

// startServer starts a server and waits until it answers /healthz.
func startServer(hub *telemetry.Hub) (*server, error) {
	s := serve.NewServer(serve.Config{Workers: clients, Hub: hub})
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		_ = s.Drain(context.Background())
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	srv := &server{s: s, url: "http://" + addr, tr: tr,
		client: &http.Client{Transport: tr, Timeout: 5 * time.Minute}}
	resp, err := srv.client.Get(srv.url + "/healthz")
	if err != nil {
		srv.stop()
		return nil, err
	}
	resp.Body.Close()
	return srv, nil
}

// stop drains the server, closes its listener and connections, and waits
// for its goroutines.
func (srv *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = srv.s.Drain(ctx)
	_ = srv.s.Shutdown(ctx)
	srv.tr.CloseIdleConnections()
}

// sample is one request's client-side outcome.
type sample struct {
	resp *serve.Response
	lat  time.Duration
	err  error
}

func (srv *server) post(req serve.Request) sample {
	body, err := json.Marshal(req)
	if err != nil {
		return sample{err: err}
	}
	t0 := time.Now()
	hr, err := srv.client.Post(srv.url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return sample{err: err, lat: time.Since(t0)}
	}
	defer hr.Body.Close()
	var resp serve.Response
	err = json.NewDecoder(hr.Body).Decode(&resp)
	lat := time.Since(t0)
	if err != nil {
		return sample{err: err, lat: lat}
	}
	return sample{resp: &resp, lat: lat}
}

// closedLoop sends reqs with `clients` client goroutines, each sending its
// next request only when the previous response has arrived. It returns
// the samples in request order and the loop's wall time.
func (srv *server) closedLoop(reqs []serve.Request) ([]sample, time.Duration) {
	out := make([]sample, len(reqs))
	t0 := time.Now()
	parallel(len(reqs), func(_, i int) { out[i] = srv.post(reqs[i]) })
	return out, time.Since(t0)
}

// releaseMemory returns freed heap to the OS between rounds, so that each
// round's footprint starts from the same floor.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// parallel runs fn(0..n-1) on `clients` goroutines and waits for them.
func parallel(n int, fn func(worker, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// reference is the cold one-shot run of a request's cell that a served
// response must agree with.
type reference struct {
	steps, checksum uint64
	err             error
}

// references runs every distinct request once through a cold, uncached,
// unpooled harness.RunCell.
func references(reqs []serve.Request) map[serve.Request]reference {
	var distinct []serve.Request
	seen := map[serve.Request]bool{}
	for _, r := range reqs {
		if !seen[r] {
			seen[r] = true
			distinct = append(distinct, r)
		}
	}
	refs := make([]reference, len(distinct))
	profs := profileTable()
	parallel(len(distinct), func(_, i int) {
		cell, err := requestCell(distinct[i], profs)
		if err != nil {
			refs[i] = reference{err: err}
			return
		}
		r := harness.RunCell(cell)
		if r.Err != nil {
			refs[i] = reference{err: r.Err}
			return
		}
		refs[i] = reference{steps: r.Meas.Result.Steps, checksum: r.Meas.Result.MemChecksum}
	})
	out := make(map[serve.Request]reference, len(distinct))
	for i, r := range distinct {
		out[r] = refs[i]
	}
	return out
}

// classify checks one served request against its reference.
func classify(s sample, ref reference) outcome {
	switch {
	case s.err != nil || s.resp == nil:
		return outFailed
	case s.resp.Status == serve.StatusShed:
		return outShed
	case s.resp.Status == serve.StatusTimeout:
		return outTimeout
	case s.resp.Status != serve.StatusOK || ref.err != nil:
		return outFailed
	case s.resp.Steps != ref.steps || s.resp.MemChecksum != ref.checksum:
		return outWrong
	}
	return outOK
}

// checkServed classifies every served request against its cold reference
// and reports the first few disagreements on diag.
func checkServed(reqs []serve.Request, samples []sample, refs map[serve.Request]reference, t *tally, diag *strings.Builder) {
	for i, s := range samples {
		o := classify(s, refs[reqs[i]])
		t.record(o)
		if o != outOK && diag.Len() < 2000 {
			fmt.Fprintf(diag, "request %+v: outcome %d, response %+v, error %v, reference %+v\n",
				reqs[i], o, s.resp, s.err, refs[reqs[i]])
		}
	}
}

// serveRun is what one untraced serve run measured.
type serveRun struct {
	setups   []float64 // seconds per set-up
	walls    []float64 // seconds per round
	lats     []float64 // ms per request
	reqs     []serve.Request
	samples  []sample
	peakRSS  float64
	measured time.Duration // summed round wall time
}

// runServeWarm: set up a server several times (start, then one pass over
// the 41 kernels), keep the last, warm it up untimed, and drive rounds of
// the seeded stream until the budget is spent.
func runServeWarm(seed uint64, budget time.Duration) (*serveRun, error) {
	run := &serveRun{}
	var srv *server
	for i := 0; i < warmSetups; i++ {
		if srv != nil {
			srv.stop()
			releaseMemory()
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(nil); err != nil {
			return nil, err
		}
		if err := sendAll(srv, prewarmRequests()); err != nil {
			srv.stop()
			return nil, err
		}
		run.setups = append(run.setups, time.Since(t0).Seconds())
	}
	if err := sendAll(srv, warmupRequests()); err != nil {
		srv.stop()
		return nil, err
	}
	for round := 0; run.measured < budget; round++ {
		reqs := warmRound(seed, round)
		samples, wall := srv.closedLoop(reqs)
		run.add(reqs, samples, wall)
	}
	var err error
	run.peakRSS, err = peakRSSMB()
	srv.stop()
	return run, err
}

// sendAll sends an unmeasured pass (set-up or warm-up) and fails on any
// non-ok response.
func sendAll(srv *server, reqs []serve.Request) error {
	samples, _ := srv.closedLoop(reqs)
	for _, s := range samples {
		if s.err != nil {
			return fmt.Errorf("warm-up: %w", s.err)
		}
		if s.resp.Status != serve.StatusOK {
			return fmt.Errorf("warm-up: %s: %s %s", s.resp.Cell, s.resp.Status, s.resp.Error)
		}
	}
	return nil
}

// runServeCold: each round starts a fresh server (set-up is that start),
// sends one round of never-seen artifacts, and drains it, until the budget
// is spent; a run that exhausts one cycle of the draw starts the next.
func runServeCold(seed uint64, budget time.Duration) (*serveRun, error) {
	run := &serveRun{}
	for cycle := 0; run.measured < budget; cycle++ {
		for _, reqs := range coldRounds(seed, cycle) {
			if run.measured >= budget {
				break
			}
			releaseMemory()
			t0 := time.Now()
			srv, err := startServer(nil)
			if err != nil {
				return nil, err
			}
			run.setups = append(run.setups, time.Since(t0).Seconds())
			samples, wall := srv.closedLoop(reqs)
			srv.stop()
			run.add(reqs, samples, wall)
		}
	}
	var err error
	run.peakRSS, err = peakRSSMB()
	return run, err
}

func (run *serveRun) add(reqs []serve.Request, samples []sample, wall time.Duration) {
	run.reqs = append(run.reqs, reqs...)
	run.samples = append(run.samples, samples...)
	run.walls = append(run.walls, wall.Seconds())
	run.measured += wall
	for _, s := range samples {
		run.lats = append(run.lats, float64(s.lat)/float64(time.Millisecond))
	}
}
