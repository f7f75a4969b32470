// Command benchserve runs the measurement harness as a long-running,
// overload-safe service. Two modes:
//
//	benchserve -addr :8080
//	    Serve POST /run compile+measure requests through the shared
//	    ArtifactCache + warm VM pools + harness, with per-request
//	    deadlines, bounded admission, explicit load-shedding (429 +
//	    Retry-After), per-cell circuit breakers, live telemetry (/metrics,
//	    /debug/serve, ...), and graceful drain on SIGTERM/SIGINT.
//
//	benchserve -loadgen -self -requests 200 -rate 100
//	    Open-loop Poisson load generation (over the kernel × profile
//	    grid) against -target, or against an in-process server (-self);
//	    exits nonzero if any request goes unaccounted for.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wasmbench/internal/faultinject"
	"wasmbench/internal/harness"
	"wasmbench/internal/serve"
	"wasmbench/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (':0' picks a free port)")
	queueBound := flag.Int("queue", 0, "admission queue bound (0 = 64); past it requests are shed with 429")
	workers := flag.Int("serve-workers", 0, "concurrent execution limit (0 = min(NumCPU, 8))")
	deadline := flag.Duration("deadline", 0, "default per-request deadline (0 = 30s)")
	maxDeadline := flag.Duration("max-deadline", 0, "cap on any request deadline (0 = 2m)")
	retryAfter := flag.Duration("retry-after", 0, "Retry-After hint on shed responses (0 = 1s)")
	breakerFailures := flag.Int("breaker-failures", 0, "trip a cell's circuit breaker after this many consecutive failures (0 = off)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before the half-open probe (0 = 5s)")
	stepLimit := flag.Uint64("step-limit", 0, "per-measurement dynamic instruction budget (0 = profile default)")
	vmPool := flag.Bool("vm-pool", true, "serve Wasm cells from warm pooled instances")
	noCache := flag.Bool("no-compile-cache", false, "cold-compile every request")
	faultSpec := flag.String("faults", "", "fault plan spec, e.g. 'serve.shed:prob=0.1;wasm.stall:count=3,stall=2s'")
	faultSeed := flag.Uint64("fault-seed", 1, "fault plan seed")
	checkpointPath := flag.String("checkpoint", "", "JSONL checkpoint: record successes, serve repeats across restarts")
	telemetrySnap := flag.String("telemetry-snapshot", "", "write a metrics snapshot on drain ('-' = text to stdout; .json gets JSON)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget before in-flight cells are canceled")

	loadgen := flag.Bool("loadgen", false, "run as load generator instead of server")
	self := flag.Bool("self", false, "with -loadgen: drive an in-process server instead of -target")
	target := flag.String("target", "", "with -loadgen: server base URL, e.g. http://127.0.0.1:8080")
	rate := flag.Float64("rate", 50, "with -loadgen: mean arrival rate, requests/second")
	requests := flag.Int("requests", 100, "with -loadgen: total requests to submit")
	seed := flag.Uint64("seed", 1, "with -loadgen: arrival-schedule seed")
	lgBench := flag.String("loadgen-bench", "", "with -loadgen: comma-separated kernel subset (default all 41)")
	lgSizes := flag.String("loadgen-sizes", "", "with -loadgen: comma-separated sizes (default XS)")
	lgProfiles := flag.String("loadgen-profiles", "", "with -loadgen: comma-separated profiles (default all six)")
	lgLang := flag.String("loadgen-lang", "wasm", "with -loadgen: wasm or js")
	lgDeadlineMS := flag.Int("loadgen-deadline-ms", 0, "with -loadgen: per-request deadline_ms (0 = server default)")
	expectShed := flag.Bool("expect-shed", false, "with -loadgen: exit nonzero unless shedding fired (overload smoke)")
	flag.Parse()

	var plan *faultinject.Plan
	if *faultSpec != "" {
		rules, err := faultinject.ParseSpec(*faultSpec)
		if err != nil {
			fatal(err)
		}
		plan = faultinject.NewPlan(*faultSeed, rules...)
	}

	hub := telemetry.NewHub(0)
	var checkpoint *harness.Checkpoint
	if *checkpointPath != "" {
		var err error
		checkpoint, err = harness.OpenCheckpoint(*checkpointPath)
		if err != nil {
			fatal(err)
		}
		if n := checkpoint.Len(); n > 0 {
			fmt.Printf("benchserve: checkpoint %s: %d cells restored\n", *checkpointPath, n)
		}
	}

	cfg := serve.Config{
		QueueBound:      *queueBound,
		Workers:         *workers,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		RetryAfter:      *retryAfter,
		StepLimit:       *stepLimit,
		BreakerFailures: *breakerFailures,
		BreakerCooldown: *breakerCooldown,
		DisableVMPool:   !*vmPool,
		DisableCache:    *noCache,
		Faults:          plan,
		Hub:             hub,
		Checkpoint:      checkpoint,
	}

	if *loadgen {
		if err := runLoadgen(cfg, loadgenFlags{
			self: *self, target: *target, addr: *addr,
			rate: *rate, requests: *requests, seed: *seed,
			benches: splitList(*lgBench), sizes: splitList(*lgSizes),
			profiles: splitList(*lgProfiles), lang: *lgLang,
			deadlineMS: *lgDeadlineMS, expectShed: *expectShed,
			drainTimeout: *drainTimeout,
		}); err != nil {
			fatal(err)
		}
		return
	}

	srv := serve.NewServer(cfg)
	bound, err := srv.Serve(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("benchserve: serving http://%s (POST /run; /healthz, /metrics, /debug/serve)\n", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "benchserve: %v: draining (budget %v)\n", s, *drainTimeout)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	drainErr := srv.Drain(drainCtx)
	cancel()
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "benchserve:", drainErr)
	}
	// Flush durable state after the pipeline is quiet: the snapshot sees
	// every terminal response, the checkpoint every recorded success.
	if *telemetrySnap != "" {
		if err := telemetry.WriteSnapshot(os.Stdout, *telemetrySnap, hub.Registry().Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "benchserve: telemetry snapshot:", err)
		}
	}
	if checkpoint != nil {
		if err := checkpoint.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "benchserve: checkpoint:", err)
		}
	}
	shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	_ = srv.Shutdown(shutdownCtx)
	cancel2()
	if drainErr != nil {
		os.Exit(1)
	}
}

type loadgenFlags struct {
	self         bool
	target       string
	addr         string
	rate         float64
	requests     int
	seed         uint64
	benches      []string
	sizes        []string
	profiles     []string
	lang         string
	deadlineMS   int
	expectShed   bool
	drainTimeout time.Duration
}

func runLoadgen(cfg serve.Config, lf loadgenFlags) error {
	target := lf.target
	var srv *serve.Server
	if lf.self {
		srv = serve.NewServer(cfg)
		bound, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			return err
		}
		target = "http://" + bound
		fmt.Printf("benchserve: self-target %s (queue %d)\n", target, serveQueueBound(cfg))
	}
	if target == "" {
		return fmt.Errorf("loadgen needs -target or -self")
	}

	stats, err := serve.RunLoad(serve.LoadOptions{
		Target: target, Rate: lf.rate, Requests: lf.requests, Seed: lf.seed,
		Benches: lf.benches, Sizes: lf.sizes, Profiles: lf.profiles,
		Lang: lf.lang, DeadlineMS: lf.deadlineMS,
	})
	if err != nil {
		return err
	}
	fmt.Print(stats.Render())

	if srv != nil {
		drainCtx, cancel := context.WithTimeout(context.Background(), lf.drainTimeout)
		defer cancel()
		if err := srv.Drain(drainCtx); err != nil {
			return err
		}
		shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		_ = srv.Shutdown(shutdownCtx)
	}

	if !stats.Accounted() {
		return fmt.Errorf("accounting violated: %d submitted, %d terminal + %d transport errors",
			stats.Submitted, stats.Terminal(), stats.TransportErrors)
	}
	if lf.expectShed && stats.ByStatus[serve.StatusShed] == 0 {
		return fmt.Errorf("expected shedding to fire (burst did not overload the queue); statuses: %v", stats.ByStatus)
	}
	return nil
}

func serveQueueBound(cfg serve.Config) int {
	if cfg.QueueBound > 0 {
		return cfg.QueueBound
	}
	return 64
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchserve:", err)
	os.Exit(1)
}
