package difftest

import (
	"fmt"
	"reflect"
	"strings"

	"wasmbench/internal/codegen"
	"wasmbench/internal/compiler"
	"wasmbench/internal/ir"
	"wasmbench/internal/jsvm"
	"wasmbench/internal/obsv"
	"wasmbench/internal/wasmvm"
)

// Outcome is one backend execution, reduced to the observable state the
// oracle compares.
type Outcome struct {
	Backend string // e.g. "wasm/both+aot", "js/jit", "x86"
	Family  string // "wasm", "js", "x86"
	Err     error
	Exit    int32
	Output  []string
	// Steps and MemSum are the stronger within-family invariants: every
	// config of the same Wasm artifact must execute the same dynamic
	// instruction stream and leave byte-identical linear memory.
	Steps  uint64
	MemSum uint64
}

// Divergence is one observed disagreement.
type Divergence struct {
	Program   string
	Level     ir.OptLevel
	Toolchain compiler.Toolchain
	A, B      string // backend labels ("" for cross-level entries)
	Field     string // "trap", "exit", "output", "steps", "memory", "xlevel"
	Detail    string
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s %v/%v: %s vs %s: %s — %s",
		d.Program, d.Toolchain, d.Level, d.A, d.B, d.Field, d.Detail)
}

// Report is the oracle's verdict for one program.
type Report struct {
	Program     string
	Source      string
	Outcomes    map[string][]Outcome // key: "toolchain/level"
	Divergences []Divergence
	Runs        int
}

// OK reports whether every backend agreed everywhere.
func (r *Report) OK() bool { return len(r.Divergences) == 0 }

// Oracle configures the differential run matrix.
type Oracle struct {
	// Levels to compile at; nil = {O0, O3}.
	Levels []ir.OptLevel
	// Toolchains to compile with; nil = {Cheerp}.
	Toolchains []compiler.Toolchain
	// FullWasmMatrix runs all 9 wasmvm configs — tier mode × {stack,
	// aot} plus a pooled aot run per mode — instead of the 5-config smoke
	// subset.
	FullWasmMatrix bool
	// Families filters backend families ("wasm", "js", "x86"); nil = all.
	Families []string
	// CrossLevel additionally requires the reference backend's observable
	// output to agree across all value-safe levels (Ofast is excluded:
	// fast-math is value-changing by design, cf. ir.FastMath).
	CrossLevel bool
	// Tracer, when set, receives one obsv.KindDivergence event per
	// divergence on the "difftest" track.
	Tracer obsv.Tracer
}

// DefaultOracle returns the smoke-test oracle: Cheerp at -O0 and -O3,
// 5-config wasm matrix, cross-level comparison on.
func DefaultOracle() *Oracle {
	return &Oracle{CrossLevel: true}
}

// wasmVariant names one wasmvm configuration. pooled variants run twice
// through a single-instance snapshot pool — once on the snapshot capture
// instance ("+pool") and once on a clone of the snapshot ("+clone") — and
// both outcomes enter the within-wasm comparison, so the oracle proves
// pooled instantiation print/exit/steps/checksum-identical to every cold
// config of the same artifact.
type wasmVariant struct {
	name   string
	cfg    wasmvm.Config
	pooled bool
}

// wasmVariants builds the wasmvm config matrix: each tier mode on the
// stack loop alone (DisableAOTTier) and with AOT superblocks serving the
// optimizing tier. The tier-up threshold is lowered to 64 so generated hot
// loops actually cross it (OSR + call tier-up).
func wasmVariants(full bool) []wasmVariant {
	mk := func(mode wasmvm.TierMode, aot bool) wasmvm.Config {
		cfg := wasmvm.DefaultConfig()
		cfg.Mode = mode
		cfg.TierUpThreshold = 64
		cfg.DisableAOTTier = !aot
		return cfg
	}
	if !full {
		return []wasmVariant{
			{name: "both+aot", cfg: mk(wasmvm.TierBoth, true)},
			{name: "both+aot", cfg: mk(wasmvm.TierBoth, true), pooled: true},
			{name: "both+stack", cfg: mk(wasmvm.TierBoth, false)},
			{name: "basic+stack", cfg: mk(wasmvm.TierBasicOnly, false)},
			{name: "opt+aot", cfg: mk(wasmvm.TierOptOnly, true)},
		}
	}
	modes := []struct {
		n string
		m wasmvm.TierMode
	}{{"both", wasmvm.TierBoth}, {"basic", wasmvm.TierBasicOnly}, {"opt", wasmvm.TierOptOnly}}
	var out []wasmVariant
	for _, md := range modes {
		out = append(out,
			wasmVariant{name: md.n + "+stack", cfg: mk(md.m, false)},
			wasmVariant{name: md.n + "+aot", cfg: mk(md.m, true)},
			// Pooled, covering snapshot capture + clone.
			wasmVariant{name: md.n + "+aot", cfg: mk(md.m, true), pooled: true})
	}
	return out
}

// jsVariants builds the jsvm tier matrix: pure interpreter and the JIT
// tier with a low threshold so generated programs cross it.
func jsVariants() []struct {
	name string
	cfg  jsvm.Config
} {
	interp := jsvm.DefaultConfig()
	interp.JITEnabled = false
	jit := jsvm.DefaultConfig()
	jit.TierUpThreshold = 64
	return []struct {
		name string
		cfg  jsvm.Config
	}{{"interp", interp}, {"jit", jit}}
}

func (o *Oracle) levels() []ir.OptLevel {
	if len(o.Levels) > 0 {
		return o.Levels
	}
	return []ir.OptLevel{ir.O0, ir.O3}
}

func (o *Oracle) toolchains() []compiler.Toolchain {
	if len(o.Toolchains) > 0 {
		return o.Toolchains
	}
	return []compiler.Toolchain{compiler.Cheerp}
}

func (o *Oracle) wantFamily(f string) bool {
	if len(o.Families) == 0 {
		return true
	}
	for _, w := range o.Families {
		if w == f {
			return true
		}
	}
	return false
}

// Check compiles src at every (toolchain, level) and runs the full backend
// matrix, comparing observable state. The returned error reports compile
// failures (infrastructure problems, not divergences).
func (o *Oracle) Check(name, src string) (*Report, error) {
	rep := &Report{Program: name, Source: src, Outcomes: map[string][]Outcome{}}
	// xlevelRef[toolchain] is the reference observable at levels[0].
	type obs struct {
		level  ir.OptLevel
		exit   int32
		output []string
	}
	xlevelRef := map[compiler.Toolchain]*obs{}

	for _, tc := range o.toolchains() {
		for _, lv := range o.levels() {
			art, err := compiler.Compile(src, compiler.Options{
				Opt: lv, Toolchain: tc, ModuleName: "difftest",
			})
			if err != nil {
				return rep, fmt.Errorf("compile %v/%v: %w", tc, lv, err)
			}
			outs := o.runMatrix(art, tc)
			key := fmt.Sprintf("%v/%v", tc, lv)
			rep.Outcomes[key] = outs
			rep.Runs += len(outs)
			rep.Divergences = append(rep.Divergences, compareOutcomes(name, lv, tc, outs)...)

			// Cross-level metamorphic check on the reference backend.
			if o.CrossLevel && lv != ir.Ofast {
				ref := referenceOutcome(outs)
				if ref != nil && ref.Err == nil {
					cur := &obs{level: lv, exit: ref.Exit, output: ref.Output}
					if prev := xlevelRef[tc]; prev == nil {
						xlevelRef[tc] = cur
					} else if prev.exit != cur.exit || !reflect.DeepEqual(prev.output, cur.output) {
						rep.Divergences = append(rep.Divergences, Divergence{
							Program: name, Level: lv, Toolchain: tc,
							A:      fmt.Sprintf("%s@%v", ref.Backend, prev.level),
							B:      fmt.Sprintf("%s@%v", ref.Backend, lv),
							Field:  "xlevel",
							Detail: diffObservable(prev.exit, cur.exit, prev.output, cur.output),
						})
					}
				}
			}
		}
	}
	if o.Tracer != nil {
		for _, d := range rep.Divergences {
			o.Tracer.Emit(obsv.Event{
				Kind: obsv.KindDivergence, Name: d.Program + "@" + d.Level.String(),
				Track: "difftest", A: 1,
			})
		}
	}
	return rep, nil
}

// safeRun executes one backend run with panic isolation: a VM bug that
// panics on a generated program becomes an Outcome error (and therefore a
// trap divergence against the healthy backends) instead of killing the
// whole fuzzing process and losing the session's corpus progress.
func safeRun(run func() (*compiler.Result, error)) (res *compiler.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("difftest: backend panic: %v", p)
		}
	}()
	return run()
}

// runMatrix executes one artifact on every selected backend variant.
func (o *Oracle) runMatrix(art *compiler.Artifact, tc compiler.Toolchain) []Outcome {
	var outs []Outcome
	if o.wantFamily("x86") {
		res, err := safeRun(func() (*compiler.Result, error) {
			return compiler.RunX86(art, codegen.DefaultX86Config())
		})
		outs = append(outs, mkOutcome("x86", "x86", res, err))
	}
	if o.wantFamily("wasm") {
		for _, v := range wasmVariants(o.FullWasmMatrix) {
			cfg := v.cfg
			if tc == compiler.Emscripten {
				cfg.GrowGranularityPages = 256
			}
			if v.pooled {
				// Two checkouts through a one-instance pool: the first runs
				// the snapshot-capture instance, the second a clone.
				pool := wasmvm.NewInstancePool(art.Module, len(art.WasmBinary),
					wasmvm.PoolOptions{MaxInstances: 1})
				for _, phase := range []string{"+pool", "+clone"} {
					res, err := safeRun(func() (*compiler.Result, error) {
						return compiler.RunWasmPooled(art, cfg, pool)
					})
					outs = append(outs, mkOutcome("wasm/"+v.name+phase, "wasm", res, err))
				}
				continue
			}
			res, err := safeRun(func() (*compiler.Result, error) {
				return compiler.RunWasm(art, cfg)
			})
			outs = append(outs, mkOutcome("wasm/"+v.name, "wasm", res, err))
		}
	}
	if o.wantFamily("js") {
		for _, v := range jsVariants() {
			res, err := safeRun(func() (*compiler.Result, error) {
				return compiler.RunJS(art, v.cfg)
			})
			outs = append(outs, mkOutcome("js/"+v.name, "js", res, err))
		}
	}
	return outs
}

func mkOutcome(label, family string, res *compiler.Result, err error) Outcome {
	out := Outcome{Backend: label, Family: family, Err: err}
	if res != nil {
		out.Exit = res.Exit
		out.Output = res.OutputStrings()
		out.Steps = res.Steps
		out.MemSum = res.MemChecksum
	}
	return out
}

// referenceOutcome picks the comparison anchor: x86 if present, else the
// first outcome.
func referenceOutcome(outs []Outcome) *Outcome {
	for i := range outs {
		if outs[i].Family == "x86" {
			return &outs[i]
		}
	}
	if len(outs) == 0 {
		return nil
	}
	return &outs[0]
}

// compareOutcomes applies the oracle's observable-state definition:
//
//   - Across families: identical print output and exit value. Generated
//     programs are trap-free by construction, so an error on one backend
//     while another succeeds is a divergence too.
//   - Within the wasm family (same artifact, different VM configs):
//     additionally identical dynamic step counts and final linear-memory
//     checksums — the AOT tier, snapshot pools, and tier modes must never
//     change execution, only cycle accounting and dispatch speed.
func compareOutcomes(name string, lv ir.OptLevel, tc compiler.Toolchain, outs []Outcome) []Divergence {
	var divs []Divergence
	ref := referenceOutcome(outs)
	if ref == nil {
		return nil
	}
	add := func(a, b *Outcome, field, detail string) {
		divs = append(divs, Divergence{Program: name, Level: lv, Toolchain: tc,
			A: a.Backend, B: b.Backend, Field: field, Detail: detail})
	}
	for i := range outs {
		oc := &outs[i]
		if oc == ref {
			continue
		}
		switch {
		case (oc.Err == nil) != (ref.Err == nil):
			add(ref, oc, "trap", fmt.Sprintf("err %v vs %v", ref.Err, oc.Err))
			continue
		case oc.Err != nil:
			continue // both trapped; generated programs should never get here
		}
		if oc.Exit != ref.Exit {
			add(ref, oc, "exit", fmt.Sprintf("%d vs %d", ref.Exit, oc.Exit))
		}
		if !reflect.DeepEqual(oc.Output, ref.Output) {
			add(ref, oc, "output", diffOutput(ref.Output, oc.Output))
		}
	}
	// Within-wasm invariants.
	var wasmRef *Outcome
	for i := range outs {
		oc := &outs[i]
		if oc.Family != "wasm" || oc.Err != nil {
			continue
		}
		if wasmRef == nil {
			wasmRef = oc
			continue
		}
		if oc.Steps != wasmRef.Steps {
			add(wasmRef, oc, "steps", fmt.Sprintf("%d vs %d", wasmRef.Steps, oc.Steps))
		}
		if oc.MemSum != wasmRef.MemSum {
			add(wasmRef, oc, "memory", fmt.Sprintf("checksum %#x vs %#x", wasmRef.MemSum, oc.MemSum))
		}
	}
	return divs
}

// diffOutput renders the first point of disagreement between two output
// streams.
func diffOutput(a, b []string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("event %d: %q vs %q (lens %d/%d)", i, a[i], b[i], len(a), len(b))
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
}

func diffObservable(exitA, exitB int32, outA, outB []string) string {
	if exitA != exitB {
		return fmt.Sprintf("exit %d vs %d", exitA, exitB)
	}
	return diffOutput(outA, outB)
}

// CheckSeed generates the program for seed and checks it; the standard
// fuzzing entry point.
func (o *Oracle) CheckSeed(seed uint64, gopts GenOptions) (*Report, error) {
	p := Generate(seed, gopts)
	return o.Check(fmt.Sprintf("seed-%d", seed), p.Render())
}

// Summary renders a one-line result for logs.
func (r *Report) Summary() string {
	if r.OK() {
		return fmt.Sprintf("%s: OK (%d runs)", r.Program, r.Runs)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d divergence(s):", r.Program, len(r.Divergences))
	for _, d := range r.Divergences {
		b.WriteString("\n  ")
		b.WriteString(d.String())
	}
	return b.String()
}
