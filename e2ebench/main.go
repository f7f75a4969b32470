// Command e2ebench is the repository benchmark. One invocation runs one
// workload in its own process and prints, as its last line, a JSON object
// with the correctness verdict, the operation counts and the metrics:
//
//	e2ebench --workload table2|serve-warm|serve-cold --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the workload's traced pass instead and reports the per-layer split.
// --steady N runs every workload N times, interleaved, and prints each
// end-to-end metric's median, quartiles and spread against the bound in
// BENCHMARK.json. See README.md for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"wasmbench/internal/serve"
	"wasmbench/internal/telemetry"
)

var workloads = []string{"table2", "serve-warm", "serve-cold"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "seed the request lists are drawn from (table2 has a fixed input)")
	seconds := fs.Int("seconds", 30, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	steady := fs.Int("steady", 0, "run every workload this many times, interleaved, and report each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *steady > 0 {
		if err := steadiness(*steady, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	var err error
	switch *workload {
	case "table2":
		if *trace == 1 {
			res, err = table2Traced(stderr)
		} else {
			res, err = table2Untraced(budget, stderr)
		}
	case "serve-warm", "serve-cold":
		warm := *workload == "serve-warm"
		if *trace == 1 {
			res, err = serveTraced(*seed, warm, stderr)
		} else {
			res, err = serveUntraced(*seed, warm, budget, stderr)
		}
	default:
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloads, ", "))
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// finish fills the verdict fields from the tally and prints any
// disagreements.
func finish(m metrics, t tally, diag *strings.Builder, stderr io.Writer) result {
	if diag.Len() > 0 {
		fmt.Fprint(stderr, diag.String())
	}
	return result{
		Correct:   t.OK == t.Attempted && t.balanced(),
		Attempted: t.Attempted,
		Failed:    t.notOK(),
		Metrics:   m,
	}
}

// latencyMetrics sets the end-to-end metrics every workload shares.
// Operations are regenerations for table2 and requests for the serve
// workloads; p95 and p99 are nearest-rank percentiles of the operation
// latencies.
func latencyMetrics(m metrics, setups, walls, latsMS []float64, ok int, busy float64, peak float64, t tally) {
	m.set("setup_s", median(setups), "s")
	m.set("wall_s", median(walls), "s")
	m.set("throughput_rps", pct(float64(ok), busy)/100, "1/s")
	m.set("p50_ms", median(latsMS), "ms")
	m.set("p95_ms", percentile(latsMS, 95), "ms")
	m.set("p99_ms", percentile(latsMS, 99), "ms")
	m.set("peak_rss_mb", peak, "MiB")
	m.set("success_rate", t.successRate(), "ratio")
}

func table2Untraced(budget time.Duration, stderr io.Writer) (result, error) {
	opts, err := table2Options()
	if err != nil {
		return result{}, err
	}
	var t tally
	var diag strings.Builder
	run, err := runTable2(opts, budget, &t, &diag)
	if err != nil {
		return result{}, err
	}
	busy := 0.0
	lats := make([]float64, len(run.walls))
	for i, w := range run.walls {
		lats[i] = w * 1000
		busy += w
	}
	// Per-cell output agreement, after the measurement so it cannot
	// disturb it or the peak RSS.
	replayTable2(opts, nil, &t, &diag)
	m := metrics{}
	latencyMetrics(m, []float64{run.setup}, run.walls, lats, run.ok, busy, run.peakRSS, t)
	fmt.Fprintf(stderr, "table2: set-up %.3fs, %d regenerations measured %.3f s; p95/p99 have %d/%d samples beyond them\n",
		run.setup, len(run.walls), run.walls, beyond(len(run.walls), 95), beyond(len(run.walls), 99))
	return finish(m, t, &diag, stderr), nil
}

func table2Traced(stderr io.Writer) (result, error) {
	opts, err := table2Options()
	if err != nil {
		return result{}, err
	}
	var t tally
	var diag strings.Builder
	sp := newSpans()
	r, out, err := regenerate(opts)
	if err == nil {
		t0 := time.Now()
		out = r.RenderTable2()
		d := time.Since(t0)
		sp.dur[lRender] += d
		sp.busy += d
	}
	checkTable(out, err, &t, &diag)
	// Untraced and traced passes in ABBA order, so that drift in machine
	// speed cancels out of the overhead; the first traced pass feeds the
	// layer split and the correctness tally.
	var scratch tally
	untraced := replayTable2(opts, nil, &scratch, &diag)
	traced := replayTable2(opts, sp, &t, &diag)
	traced += replayTable2(opts, newSpans(), &scratch, &diag)
	untraced += replayTable2(opts, nil, &scratch, &diag)
	m := metrics{}
	sp.layerMetrics(m, untraced, traced)
	zeroServeLayers(m)
	sp.report(stderr, "table2", untraced, traced)
	return finish(m, t, &diag, stderr), nil
}

// zeroServeLayers sets the serving-path metrics for a workload that does
// not serve: no pool, no cache, no HTTP.
func zeroServeLayers(m metrics) {
	poolMetrics(m, 0, 0, 0, 0, 0)
	cacheMetrics(m, 0, 0)
	m.set("serve.http_share", 0, "%")
	m.set("serve.queue_share", 0, "%")
	m.set("harness.run_share", 0, "%")
}

// hubPoolCounters reads the served pools' checkout counters (hits, misses,
// recycles, cold fallbacks) from the hub's registry.
func hubPoolCounters(hub *telemetry.Hub) [4]float64 {
	reg := hub.Registry()
	var out [4]float64
	for i, name := range []string{"wasm_vm_pool_hits_total", "wasm_vm_pool_misses_total",
		"wasm_vm_pool_recycles_total", "wasm_vm_pool_cold_fallbacks_total"} {
		out[i] = reg.Counter(name, "").Value()
	}
	return out
}

func poolMetrics(m metrics, hits, misses, recycles, cold, live float64) {
	m.set("wasmvm.pool_hits", hits, "count")
	m.set("wasmvm.pool_misses", misses, "count")
	m.set("wasmvm.pool_recycles", recycles, "count")
	m.set("wasmvm.pool_cold_fallbacks", cold, "count")
	m.set("wasmvm.pool_live", live, "count")
	m.set("wasmvm.pool_reuse_ratio", pct(hits, hits+misses+cold)/100, "ratio")
}

func cacheMetrics(m metrics, hits, misses float64) {
	m.set("harness.cache_hits", hits, "count")
	m.set("harness.cache_misses", misses, "count")
	m.set("harness.cache_hit_ratio", pct(hits, hits+misses)/100, "ratio")
}

func serveUntraced(seed uint64, warm bool, budget time.Duration, stderr io.Writer) (result, error) {
	var run *serveRun
	var err error
	name := "serve-cold"
	if warm {
		name = "serve-warm"
		run, err = runServeWarm(seed, budget)
	} else {
		run, err = runServeCold(seed, budget)
	}
	if err != nil {
		return result{}, err
	}
	var t tally
	var diag strings.Builder
	checkServed(run.reqs, run.samples, references(run.reqs), &t, &diag)
	m := metrics{}
	latencyMetrics(m, run.setups, run.walls, run.lats, t.OK, run.measured.Seconds(), run.peakRSS, t)
	fmt.Fprintf(stderr, "%s: %d requests in %d rounds, %d set-ups; p95 has %d samples beyond it, p99 %d\n",
		name, len(run.reqs), len(run.walls), len(run.setups), beyond(len(run.lats), 95), beyond(len(run.lats), 99))
	return finish(m, t, &diag, stderr), nil
}

// serveTraced drives a fixed request list through a server with a
// telemetry hub, then replays the same list untraced and traced from the
// benchmark's own calls into each layer.
func serveTraced(seed uint64, warm bool, stderr io.Writer) (result, error) {
	var rounds [][]serve.Request
	if warm {
		// One list, served on one pre-warmed server.
		var reqs []serve.Request
		for r := 0; r < tracedWarmRnds; r++ {
			reqs = append(reqs, warmRound(seed, r)...)
		}
		rounds = [][]serve.Request{reqs}
	} else {
		rounds = coldRounds(seed, 0)[:tracedColdRnds]
	}
	var all []serve.Request
	for _, r := range rounds {
		all = append(all, r...)
	}

	// 1. The served path, with the pool counters read from the hub.
	hub := telemetry.NewHub(0)
	var samples []sample
	var base [4]float64
	for _, reqs := range rounds {
		srv, err := startServer(hub)
		if err != nil {
			return result{}, err
		}
		if warm {
			if err := sendAll(srv, prewarmRequests()); err != nil {
				srv.stop()
				return result{}, err
			}
			if err := sendAll(srv, warmupRequests()); err != nil {
				srv.stop()
				return result{}, err
			}
			base = hubPoolCounters(hub)
		}
		got, _ := srv.closedLoop(reqs)
		samples = append(samples, got...)
		srv.stop()
		releaseMemory()
	}
	after := hubPoolCounters(hub)

	// 2. The replay, untraced and traced on identically prepared state, in
	// an order that cancels drift out of the overhead: serve-warm replays
	// ABBA on warm pools after a settling pass that touches every shape
	// the list needs; serve-cold replays each round twice on fresh state,
	// alternating which pass goes first.
	sp := newSpans()
	var untraced, traced time.Duration
	var live float64
	var stepsSeen []uint64
	if warm {
		rp := newReplay()
		for _, reqs := range [][]serve.Request{prewarmRequests(), all} {
			if _, _, err := rp.run(reqs, nil); err != nil {
				return result{}, err
			}
		}
		for _, pass := range []*spans{nil, sp, newSpans(), nil} {
			steps, d, err := rp.run(all, pass)
			if err != nil {
				return result{}, err
			}
			if pass == nil {
				untraced += d
				continue
			}
			traced += d
			if pass == sp {
				stepsSeen = steps
				live = float64(rp.poolStats().Live)
			}
		}
	} else {
		for i, reqs := range rounds {
			for k := 0; k < 2; k++ {
				rp := newReplay()
				if (i+k)%2 == 0 {
					_, d, err := rp.run(reqs, nil)
					if err != nil {
						return result{}, err
					}
					untraced += d
				} else {
					steps, d, err := rp.run(reqs, sp)
					if err != nil {
						return result{}, err
					}
					traced += d
					stepsSeen = append(stepsSeen, steps...)
					live += float64(rp.poolStats().Live)
				}
				releaseMemory()
			}
		}
	}

	// 3. Correctness: served responses and replayed step counts against
	// cold one-shot references.
	var t tally
	var diag strings.Builder
	refs := references(all)
	checkServed(all, samples, refs, &t, &diag)
	for i, req := range all {
		if stepsSeen[i] != refs[req].steps {
			t.record(outWrong)
			fmt.Fprintf(&diag, "replay %+v: steps %d, reference %d\n", req, stepsSeen[i], refs[req].steps)
			continue
		}
		t.record(outOK)
	}

	m := metrics{}
	sp.layerMetrics(m, untraced, traced)
	poolMetrics(m, after[0]-base[0], after[1]-base[1], after[2]-base[2], after[3]-base[3], live)
	var hits, misses, latSum, queueSum, runSum float64
	for _, s := range samples {
		if s.resp == nil {
			continue
		}
		if s.resp.CacheHit {
			hits++
		} else {
			misses++
		}
		latSum += float64(s.lat) / float64(time.Millisecond)
		queueSum += s.resp.QueueMS
		runSum += s.resp.RunMS
	}
	cacheMetrics(m, hits, misses)
	m.set("serve.http_share", pct(latSum-queueSum-runSum, latSum), "%")
	m.set("serve.queue_share", pct(queueSum, latSum), "%")
	m.set("harness.run_share", pct(runSum, latSum), "%")
	name := "serve-cold"
	if warm {
		name = "serve-warm"
	}
	sp.report(stderr, name, untraced, traced)
	fmt.Fprintf(stderr, "  served: %d requests; client latency split: http %.1f%%, queue %.1f%%, run %.1f%%; cache hits %v misses %v\n",
		len(samples), m["serve.http_share"].Value, m["serve.queue_share"].Value, m["harness.run_share"].Value, hits, misses)
	return finish(m, t, &diag, stderr), nil
}
