package harness

// This file is the harness's resilience layer: per-cell budgets (virtual
// step limit + wall-clock deadline), panic recovery in workers, bounded
// retry with seeded exponential backoff, a graceful-degradation ladder
// (AOT dispatch → opt level progressively disabled, mirroring real
// engines tiering down), per-benchmark quarantine, and the fault-plan
// plumbing that lets internal/faultinject exercise all of it
// deterministically. The paper's methodology needs sweeps that survive
// hostile conditions — mobile tab OOM kills, wedged cells, transient
// toolchain failures — without losing the rest of the table.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"wasmbench/internal/browser"
	"wasmbench/internal/codegen"
	"wasmbench/internal/compiler"
	"wasmbench/internal/faultinject"
	"wasmbench/internal/ir"
	"wasmbench/internal/obsv"
	"wasmbench/internal/telemetry"
	"wasmbench/internal/wasmvm"
)

// Resilience errors.
var (
	// ErrCellDeadline reports that a cell exceeded its wall-clock budget —
	// RunOptions.Deadline or a deadline carried by RunOptions.Context — and
	// was abandoned (its goroutine exits on its own; see runAttemptGuarded).
	ErrCellDeadline = errors.New("harness: cell deadline exceeded")
	// ErrCellCanceled reports a cell abandoned because RunOptions.Context
	// was canceled (a drain or client disconnect, not a timeout). The
	// wrapped chain also matches context.Canceled.
	ErrCellCanceled = errors.New("harness: cell canceled")
	// ErrQuarantined reports a cell skipped because its benchmark
	// accumulated RunOptions.QuarantineAfter consecutive failures.
	ErrQuarantined = errors.New("harness: benchmark quarantined")
)

// degradeRungs is the graceful-degradation ladder for a cell language, in
// the order attempts descend it (x86 has no engine tiers, so only the O0
// rung). The wasm "noaot" rung only changes dispatch machinery (the stack
// loop serves the optimizing tier instead of AOT superblocks), so a
// degraded result is identical to the full-configuration result by
// construction; the final O0 rung trades optimization for survival and is
// visibly recorded in the metrics.
func degradeRungs(lang string) []string {
	switch lang {
	case "js":
		return []string{"nojit", "O0"}
	case "x86":
		return []string{"O0"}
	}
	return []string{"noaot", "O0"}
}

// backoffDelay is the seeded exponential backoff before retry attempt
// (1-based): base·2^(attempt−1) plus up to 100% deterministic jitter from
// the fault-plan seed, so a fixed seed replays the identical schedule.
func backoffDelay(base time.Duration, seed uint64, label string, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 20 {
		shift = 20
	}
	d := base << uint(shift)
	return d + time.Duration(float64(d)*faultinject.Jitter01(seed, label, attempt))
}

// quarantine tracks consecutive failures per benchmark across the worker
// pool. After `after` consecutive failures, further cells of that
// benchmark are skipped with ErrQuarantined; one success resets the count.
type quarantine struct {
	mu    chan struct{} // 1-buffered semaphore (avoids embedding sync.Mutex in a value copied by tests)
	after int
	fails map[string]int
}

func newQuarantine(after int) *quarantine {
	if after <= 0 {
		return nil
	}
	q := &quarantine{mu: make(chan struct{}, 1), after: after, fails: make(map[string]int)}
	q.mu <- struct{}{}
	return q
}

func (q *quarantine) blocked(bench string) bool {
	if q == nil {
		return false
	}
	<-q.mu
	n := q.fails[bench]
	q.mu <- struct{}{}
	return n >= q.after
}

func (q *quarantine) report(bench string, failed bool) {
	if q == nil {
		return
	}
	<-q.mu
	if failed {
		q.fails[bench]++
	} else {
		q.fails[bench] = 0
	}
	q.mu <- struct{}{}
}

// attemptInfo carries one attempt's wall-time split.
type attemptInfo struct {
	compile time.Duration
	measure time.Duration
	hit     bool
}

// runAttempt executes one attempt of a cell at a degradation rung, with an
// optional per-cell fault plan threaded through the toolchain and both
// engines. With rung == "" and a nil plan this is exactly the pre-
// resilience execution path.
func runAttempt(c Cell, cache *ArtifactCache, opt RunOptions, rung string, plan *faultinject.Plan) (CellResult, attemptInfo) {
	var info attemptInfo
	if plan != nil && plan.Fire(faultinject.CompilerCache, c.Bench.Name) {
		return CellResult{Cell: c, Err: fmt.Errorf("%s/%v: %w", c.Bench.Name, c.Size,
			faultinject.Errorf(faultinject.CompilerCache, "artifact cache unavailable"))}, info
	}

	cc := c
	mo := browser.MeasureOptions{Mode: c.Mode, StepLimit: opt.StepLimit, Faults: plan}
	switch rung {
	case "noaot":
		mo.DisableAOTTier = true
	case "nojit":
		mo.DisableJIT = true
	case "O0":
		cc.Level = ir.O0
		if cc.Lang == "js" {
			mo.DisableJIT = true
		} else {
			mo.DisableAOTTier = true
		}
	}

	t0 := time.Now()
	var art *compiler.Artifact
	var err error
	if cache != nil {
		art, info.hit, err = cache.compileCell(cc, plan)
	} else {
		opts := cellOptions(cc)
		opts.Faults = plan
		if opt.Telemetry != nil {
			// Get-or-create against the registry: cheap, and cold compiles
			// stay visible on /metrics even with the cache disabled.
			opts.Instruments = telemetry.NewCompilerInstruments(opt.Telemetry.Registry())
		}
		art, err = compiler.Compile(cc.Bench.Source, opts)
	}
	info.compile = time.Since(t0)
	if err != nil {
		return CellResult{Cell: c, Err: fmt.Errorf("%s/%v: %w", c.Bench.Name, c.Size, err)}, info
	}

	t1 := time.Now()
	var m *browser.Measurement
	switch cc.Lang {
	case "js":
		m, err = cc.Profile.MeasureJSWith(art, mo)
	case "x86":
		m, err = runX86(art, mo)
	default:
		// Pooled instantiation is keyed by the degraded cell's fingerprint:
		// an O0 rung compiles a different artifact and therefore uses a
		// different pool, while the dispatch-only noaot rung shares the
		// artifact but lands in its own config-shape bucket.
		mo.VMPool = opt.vmPools.poolFor(cc.Fingerprint(), art)
		m, err = cc.Profile.MeasureWasmWith(art, mo)
	}
	info.measure = time.Since(t1)
	if err != nil {
		err = fmt.Errorf("%s/%v/%s: %w", c.Bench.Name, c.Size, c.Lang, err)
	}
	return CellResult{Cell: c, Meas: m, Art: art, Err: err}, info
}

// runX86 runs an x86 cell on the native backend. The measurement carries
// only the run's Result: without a browser there is no page timer or
// DevTools memory.
func runX86(art *compiler.Artifact, mo browser.MeasureOptions) (*browser.Measurement, error) {
	if mo.Mode != wasmvm.TierBoth {
		return nil, browser.ErrTierMode
	}
	cfg := codegen.DefaultX86Config()
	cfg.StepLimit = mo.StepLimit
	res, err := compiler.RunX86(art, cfg)
	if err != nil {
		return nil, err
	}
	return &browser.Measurement{Result: res}, nil
}

// budgetErr maps a context's termination cause to the harness error for a
// cell abandoned mid-attempt (or while waiting to start one).
func budgetErr(ctx context.Context, label string, deadline time.Duration) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		if deadline > 0 {
			return fmt.Errorf("%s: %w after %v", label, ErrCellDeadline, deadline)
		}
		return fmt.Errorf("%s: %w", label, ErrCellDeadline)
	}
	return fmt.Errorf("%s: %w: %w", label, ErrCellCanceled, ctx.Err())
}

// runAttemptGuarded wraps runAttempt with panic recovery and, when the
// context carries a budget (RunOptions.Deadline, a caller deadline, or
// plain cancelation), a wall-clock guard. The attempt runs in a child
// goroutine that communicates over a 1-buffered channel: on expiry the
// worker abandons it — the child's eventual send never blocks, so the
// goroutine always exits, and ctx.Done() doubles as the fault-plan cancel
// channel, aborting any injected stall the child is sleeping in. With no
// budget at all the attempt runs inline: the zero-fault fast path spawns
// nothing.
func runAttemptGuarded(ctx context.Context, c Cell, opt RunOptions, cache *ArtifactCache, rung, label string) (CellResult, attemptInfo) {
	run := func(cancel <-chan struct{}) (res CellResult, info attemptInfo) {
		defer func() {
			if p := recover(); p != nil {
				if err, ok := p.(error); ok && faultinject.IsInjected(err) {
					res = CellResult{Cell: c, Err: fmt.Errorf("%s: worker panic: %w", label, err)}
				} else {
					res = CellResult{Cell: c, Err: fmt.Errorf("%s: worker panic: %v", label, p)}
				}
			}
		}()
		plan := opt.Faults.Cell(label, cancel)
		if plan.Fire(faultinject.HarnessPanic, "worker") {
			panic(faultinject.Errorf(faultinject.HarnessPanic, "injected worker panic"))
		}
		return runAttempt(c, cache, opt, rung, plan)
	}

	if opt.Deadline > 0 {
		var cancelBudget context.CancelFunc
		ctx, cancelBudget = context.WithTimeout(ctx, opt.Deadline)
		defer cancelBudget()
	}
	if ctx.Done() == nil {
		return run(nil)
	}
	if ctx.Err() != nil {
		return CellResult{Cell: c, Err: budgetErr(ctx, label, opt.Deadline)}, attemptInfo{}
	}

	type attemptResult struct {
		res  CellResult
		info attemptInfo
	}
	ch := make(chan attemptResult, 1)
	go func() {
		res, info := run(ctx.Done())
		ch <- attemptResult{res, info}
	}()
	select {
	case ar := <-ch:
		return ar.res, ar.info
	case <-ctx.Done():
		return CellResult{Cell: c, Err: budgetErr(ctx, label, opt.Deadline)}, attemptInfo{}
	}
}

// cellOutcome summarizes a cell's resilient execution for the run metrics.
type cellOutcome struct {
	compile     time.Duration
	measure     time.Duration
	hit         bool
	attempts    int
	degraded    string
	quarantined bool
}

// runCellResilient drives one cell through quarantine check, the attempt/
// retry loop with seeded backoff, and the degradation ladder, emitting the
// robustness trace events as recoveries happen.
func runCellResilient(ctx context.Context, c Cell, opt RunOptions, cache *ArtifactCache, quar *quarantine, runStart time.Time) (CellResult, cellOutcome) {
	label := c.Label()
	wallTS := func() float64 { return float64(time.Since(runStart)) }

	if ctx.Err() != nil {
		// Canceled before starting: report the termination without touching
		// the quarantine counters — cancelation is not a benchmark failure.
		return CellResult{Cell: c, Err: budgetErr(ctx, label, 0)}, cellOutcome{}
	}

	if quar.blocked(c.Bench.Name) {
		if opt.Tracer != nil {
			opt.Tracer.Emit(obsv.Event{Kind: obsv.KindQuarantine, TS: wallTS(),
				Name: label, Track: "harness", A: float64(opt.QuarantineAfter)})
		}
		return CellResult{Cell: c, Err: fmt.Errorf("%s: %w", label, ErrQuarantined)},
			cellOutcome{quarantined: true}
	}

	seed := opt.Faults.Seed()
	var res CellResult
	var out cellOutcome
	for attempt := 0; attempt <= opt.Retries; attempt++ {
		if attempt > 0 {
			d := backoffDelay(opt.RetryBackoff, seed, label, attempt)
			if opt.Tracer != nil {
				opt.Tracer.Emit(obsv.Event{Kind: obsv.KindRetry, TS: wallTS(),
					Name: label, Track: "harness",
					A: float64(attempt + 1), B: float64(d) / float64(time.Millisecond)})
			}
			if d > 0 {
				timer := time.NewTimer(d)
				select {
				case <-timer.C:
				case <-ctx.Done():
					timer.Stop()
				}
			}
			if ctx.Err() != nil {
				res = CellResult{Cell: c, Err: budgetErr(ctx, label, 0)}
				break
			}
		}
		rung := ""
		if opt.DegradeOnRetry && attempt > 0 {
			rungs := degradeRungs(c.Lang)
			ri := attempt - 1
			if ri >= len(rungs) {
				ri = len(rungs) - 1
			}
			rung = rungs[ri]
			if opt.Tracer != nil {
				opt.Tracer.Emit(obsv.Event{Kind: obsv.KindDegrade, TS: wallTS(),
					Name: label, Track: rung, A: float64(attempt + 1)})
			}
		}
		var info attemptInfo
		res, info = runAttemptGuarded(ctx, c, opt, cache, rung, label)
		out.attempts = attempt + 1
		out.compile += info.compile
		out.measure += info.measure
		out.hit = out.hit || info.hit
		if res.Err == nil {
			out.degraded = rung
			break
		}
		if errors.Is(res.Err, ErrCellCanceled) {
			break // the whole run is being torn down; retrying is pointless
		}
	}
	// A canceled cell says nothing about the benchmark's health — don't let
	// a drain poison the consecutive-failure counters.
	quar.report(c.Bench.Name, res.Err != nil && !errors.Is(res.Err, ErrCellCanceled))
	return res, out
}
