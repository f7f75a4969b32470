package harness

// This file is the harness's one execution path for a cell: a single
// attempt under per-cell budgets (virtual step limit + wall-clock
// deadline), with panic recovery in workers and the fault-plan plumbing
// that lets internal/faultinject exercise both deterministically. Every
// engine is deterministic, so a failed cell is reported once, with a typed
// error, under the configuration its label names; the sweep goes on and
// the rest of the table survives.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"wasmbench/internal/browser"
	"wasmbench/internal/codegen"
	"wasmbench/internal/compiler"
	"wasmbench/internal/faultinject"
	"wasmbench/internal/telemetry"
	"wasmbench/internal/wasmvm"
)

// Budget errors.
var (
	// ErrCellDeadline reports that a cell exceeded its wall-clock budget —
	// RunOptions.Deadline or a deadline carried by RunOptions.Context — and
	// was abandoned (its goroutine exits on its own; see runAttemptGuarded).
	ErrCellDeadline = errors.New("harness: cell deadline exceeded")
	// ErrCellCanceled reports a cell abandoned because RunOptions.Context
	// was canceled (a drain or client disconnect, not a timeout). The
	// wrapped chain also matches context.Canceled.
	ErrCellCanceled = errors.New("harness: cell canceled")
)

// attemptInfo carries one attempt's wall-time split.
type attemptInfo struct {
	compile time.Duration
	measure time.Duration
	hit     bool
}

// runAttempt executes one attempt of a cell, with an optional per-cell
// fault plan threaded through the toolchain and the engines. With a nil
// plan this is exactly the fault-free execution path.
func runAttempt(c Cell, cache *ArtifactCache, opt RunOptions, plan *faultinject.Plan) (CellResult, attemptInfo) {
	var info attemptInfo
	mo := browser.MeasureOptions{Mode: c.Mode, StepLimit: opt.StepLimit, Faults: plan}

	t0 := time.Now()
	var art *compiler.Artifact
	var err error
	if cache != nil {
		art, info.hit, err = cache.compileCell(c, plan)
	} else {
		opts := cellOptions(c)
		opts.Faults = plan
		if opt.Telemetry != nil {
			// Get-or-create against the registry: cheap, and cold compiles
			// stay visible on /metrics even with the cache disabled.
			opts.Instruments = telemetry.NewCompilerInstruments(opt.Telemetry.Registry())
		}
		art, err = compiler.Compile(c.Bench.Source, opts)
	}
	info.compile = time.Since(t0)
	if err != nil {
		return CellResult{Cell: c, Err: fmt.Errorf("%s/%v: %w", c.Bench.Name, c.Size, err)}, info
	}

	t1 := time.Now()
	var m *browser.Measurement
	switch c.Lang {
	case "js":
		m, err = c.Profile.MeasureJSWith(art, mo)
	case "x86":
		m, err = runX86(art, mo)
	default:
		mo.VMPool = opt.vmPools.poolFor(c.Fingerprint(), art)
		m, err = c.Profile.MeasureWasmWith(art, mo)
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

// runAttemptGuarded runs a cell's one attempt with panic recovery and,
// when the context carries a budget (RunOptions.Deadline, a caller
// deadline, or plain cancelation), a wall-clock guard. A cell whose run
// ended before it started reports that without executing. Otherwise the
// attempt runs in a child goroutine that communicates over a 1-buffered
// channel: on expiry the worker abandons it — the child's eventual send
// never blocks, so the goroutine always exits, and ctx.Done() doubles as
// the fault-plan cancel channel, aborting any injected stall the child is
// sleeping in. With no budget at all the attempt runs inline: the
// zero-fault fast path spawns nothing.
func runAttemptGuarded(ctx context.Context, c Cell, opt RunOptions, cache *ArtifactCache) (CellResult, attemptInfo) {
	label := c.Label()
	if ctx.Err() != nil {
		return CellResult{Cell: c, Err: budgetErr(ctx, label, 0)}, attemptInfo{}
	}
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
		return runAttempt(c, cache, opt, plan)
	}

	if opt.Deadline > 0 {
		var cancelBudget context.CancelFunc
		ctx, cancelBudget = context.WithTimeout(ctx, opt.Deadline)
		defer cancelBudget()
	}
	if ctx.Done() == nil {
		return run(nil)
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
