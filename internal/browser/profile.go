// Package browser models the study's execution environments (§2.2, §4.5):
// Chrome, Firefox, and Edge on desktop and mobile. A Profile is a vector of
// engine parameters — tier cost tables, tier-up thresholds, startup costs,
// GC settings, Wasm↔JS boundary costs, and a clock rate — calibrated so the
// paper's aggregate cross-browser ratios (Table 8) hold, while every
// per-benchmark number emerges from executing real code.
package browser

import (
	"errors"
	"fmt"

	"wasmbench/internal/compiler"
	"wasmbench/internal/faultinject"
	"wasmbench/internal/jsvm"
	"wasmbench/internal/obsv"
	"wasmbench/internal/telemetry"
	"wasmbench/internal/wasmvm"
)

// Platform distinguishes desktop and mobile deployments.
type Platform int

// Platforms.
const (
	Desktop Platform = iota
	Mobile
)

func (p Platform) String() string {
	if p == Mobile {
		return "mobile"
	}
	return "desktop"
}

// Profile is one browser/platform environment.
type Profile struct {
	Browser  string
	Platform Platform
	// ClockGHz converts virtual cycles to milliseconds.
	ClockGHz float64
	// Wasm engine parameters.
	Wasm wasmvm.Config
	// JS engine parameters.
	JS jsvm.Config
	// CtxSwitch is the Wasm↔JS boundary cost in cycles (Firefox's 2018
	// call-path optimization makes this small there, §4.5).
	CtxSwitch float64
	// PageOverhead is the fixed page setup cost in cycles (HTML parse,
	// minimal page render).
	PageOverhead float64
	// WasmMemOverhead is the module/devtools overhead added to the Wasm
	// memory metric, in bytes.
	WasmMemOverhead uint64
}

// Name returns e.g. "chrome-desktop".
func (p *Profile) Name() string {
	return fmt.Sprintf("%s-%s", p.Browser, p.Platform)
}

// SetTracer installs a tracer on both engines. Events are forwarded with
// the profile name prefixed to the engine track ("chrome-desktop/wasm",
// "chrome-desktop/js"), so one collector can hold several environments.
func (p *Profile) SetTracer(t obsv.Tracer) {
	p.Wasm.Tracer = obsv.WithTrack(t, p.Name())
	p.JS.Tracer = obsv.WithTrack(t, p.Name())
}

// SetProfiling enables per-function profile collection on both engines
// without attaching a tracer.
func (p *Profile) SetProfiling(on bool) {
	p.Wasm.Profile = on
	p.JS.Profile = on
}

// SetInstruments attaches live-telemetry instrument bundles to both
// engines: every VM the profile spawns from then on publishes its
// counters there. Configs are copied per measurement, so the bundles ride
// along by pointer; instruments are concurrency-safe and accumulate
// across all cells measured on the profile.
func (p *Profile) SetInstruments(r *telemetry.Registry) {
	p.Wasm.Instruments = telemetry.NewVMInstruments(r)
	p.JS.Instruments = telemetry.NewJSInstruments(r)
}

// MSFromCycles converts virtual cycles to milliseconds.
func (p *Profile) MSFromCycles(c float64) float64 {
	return c / (p.ClockGHz * 1e6)
}

// Chrome returns the Chrome profile (V8: Ignition/Sparkplug-era interp +
// TurboFan; Wasm: LiftOff + TurboFan). Desktop Chrome is the study's
// reference point.
func Chrome(plat Platform) *Profile {
	p := &Profile{
		Browser:         "chrome",
		Platform:        plat,
		ClockGHz:        3.0,
		Wasm:            wasmvm.DefaultConfig(),
		JS:              jsvm.DefaultConfig(),
		CtxSwitch:       900,
		PageOverhead:    2.2e6,
		WasmMemOverhead: 940 << 10,
	}
	p.JS.EngineBaseline = 880 << 10
	// Chrome's JS parse+startup is comparatively heavy, its optimizing JIT
	// strong: large interp/JIT gap, moderate threshold.
	p.JS.ParsePerByte = 1.3
	p.JS.TierUpThreshold = 500
	p.JS.JITCost = p.JS.JITCost.Scale(0.85)
	p.Wasm.TierUpThreshold = 1500
	if plat == Mobile {
		mobileize(p)
		p.JS.EngineBaseline = 406 << 10
		p.WasmMemOverhead = 620 << 10
	}
	return p
}

// Firefox returns the Firefox profile (SpiderMonkey + Baseline/Ion). Its
// Wasm tiers generate faster code than Chrome's (0.61x desktop execution
// time, §4.5) and its Wasm↔JS calls are much cheaper, but instantiation
// and JS parsing behave differently: quick JS startup with an earlier but
// weaker JIT, heavier Wasm module preparation — which is why small inputs
// favor JS on Firefox (Table 5).
func Firefox(plat Platform) *Profile {
	p := &Profile{
		Browser:         "firefox",
		Platform:        plat,
		ClockGHz:        3.0,
		Wasm:            wasmvm.DefaultConfig(),
		JS:              jsvm.DefaultConfig(),
		CtxSwitch:       120, // ≈0.13x of Chrome (§4.5)
		PageOverhead:    2.0e6,
		WasmMemOverhead: 760 << 10,
	}
	// Wasm: faster tiers, heavier up-front preparation.
	p.Wasm.BasicCost = p.Wasm.BasicCost.Scale(0.55)
	p.Wasm.OptCost = p.Wasm.OptCost.Scale(0.52)
	p.Wasm.CompileBasicPerInstr = 14
	p.Wasm.CompileOptPerInstr = 90
	p.Wasm.InstantiateCost = 5.5e5
	p.Wasm.DecodePerByte = 2.2
	p.Wasm.TierUpThreshold = 1800
	// JS: light parser, early/modest JIT.
	p.JS.ParsePerByte = 0.55
	p.JS.TierUpThreshold = 250
	p.JS.InterpCost = p.JS.InterpCost.Scale(0.72)
	p.JS.JITCost = p.JS.JITCost.Scale(1.30)
	p.JS.EngineBaseline = 505 << 10
	if plat == Mobile {
		mobileize(p)
		// GeckoView + Cranelift on ARM64 (§4.5): notably slower Wasm tiers,
		// while the JS engine holds up well on mobile.
		p.Wasm.BasicCost = p.Wasm.BasicCost.Scale(2.0)
		p.Wasm.OptCost = p.Wasm.OptCost.Scale(2.1)
		p.Wasm.InstantiateCost = 1.4e6
		p.JS.InterpCost = p.JS.InterpCost.Scale(0.82)
		p.JS.JITCost = p.JS.JITCost.Scale(0.78)
		p.JS.EngineBaseline = 692 << 10
		p.WasmMemOverhead = 900 << 10
	}
	return p
}

// Edge returns the Edge profile (Chromium Blink fork, v79): same engine
// architecture as Chrome with conservative scheduling on desktop (1.28x
// Wasm, 1.40x JS) and a leaner mobile build (0.83x / 0.81x of mobile
// Chrome).
func Edge(plat Platform) *Profile {
	p := Chrome(plat)
	p.Browser = "edge"
	if plat == Desktop {
		p.Wasm.BasicCost = p.Wasm.BasicCost.Scale(1.28)
		p.Wasm.OptCost = p.Wasm.OptCost.Scale(1.28)
		p.JS.InterpCost = p.JS.InterpCost.Scale(1.40)
		p.JS.JITCost = p.JS.JITCost.Scale(1.40)
		p.JS.EngineBaseline = 871 << 10
		p.WasmMemOverhead = 980 << 10
	} else {
		p.Wasm.BasicCost = p.Wasm.BasicCost.Scale(0.83)
		p.Wasm.OptCost = p.Wasm.OptCost.Scale(0.83)
		p.JS.InterpCost = p.JS.InterpCost.Scale(0.81)
		p.JS.JITCost = p.JS.JITCost.Scale(0.81)
		p.JS.EngineBaseline = 966 << 10
		p.WasmMemOverhead = 1100 << 10
	}
	return p
}

// mobileize applies the common mobile-platform slowdown (lower clocks,
// smaller caches, thermal limits; the study's Mi 6).
func mobileize(p *Profile) {
	p.ClockGHz = 1.35
	p.Wasm.BasicCost = p.Wasm.BasicCost.Scale(1.6)
	p.Wasm.OptCost = p.Wasm.OptCost.Scale(1.6)
	p.JS.InterpCost = p.JS.InterpCost.Scale(1.6)
	p.JS.JITCost = p.JS.JITCost.Scale(1.6)
	p.PageOverhead *= 2.5
	p.Wasm.InstantiateCost *= 2
	p.JS.ParsePerByte *= 1.8
}

// AllDesktop returns the three desktop profiles.
func AllDesktop() []*Profile {
	return []*Profile{Chrome(Desktop), Firefox(Desktop), Edge(Desktop)}
}

// AllProfiles returns the six deployment settings of §4.5.
func AllProfiles() []*Profile {
	return []*Profile{
		Chrome(Desktop), Firefox(Desktop), Edge(Desktop),
		Chrome(Mobile), Firefox(Mobile), Edge(Mobile),
	}
}

// ErrTierMode reports a tier mode the engine cannot run: the JS engine
// has no optimizing-only configuration.
var ErrTierMode = errors.New("browser: tier mode not supported by this engine")

// Measurement is one §3.4 data collection: execution time via the page's
// performance.now() span and memory via the DevTools model.
type Measurement struct {
	ExecMS   float64
	MemoryKB float64
	Result   *compiler.Result
}

// MeasureOptions overrides engine parameters for one measurement without
// mutating the profile. The zero value changes nothing, so measurements
// through it are identical to the plain Measure methods — which is what
// lets the harness's budgets and fault plans ride through the same code
// path the zero-fault sweep uses.
type MeasureOptions struct {
	// Mode selects the engine tiers (the §4.4 experiments). On the Wasm
	// engine a mode other than TierBoth replaces the profile's; on the JS
	// engine TierBasicOnly pins the interpreter (--no-opt) and
	// TierOptOnly fails with ErrTierMode.
	Mode wasmvm.TierMode
	// StepLimit bounds dynamic instructions/steps for the run (a virtual-
	// cycle budget; 0 keeps the profile's setting).
	StepLimit uint64
	// Faults arms a fault plan on the engine for this run.
	Faults *faultinject.Plan
	// VMPool serves the Wasm run from a pooled instance, the snapshot
	// capture or a clone of it, instead of a cold instantiation. Host wall-clock
	// only: virtual metrics are byte-identical by the wasmvm snapshot
	// contract, so a nil pool (the default) and a pooled run measure the
	// same numbers.
	VMPool *wasmvm.InstancePool
}

// MeasureWasm loads a minimal page with the artifact's Wasm module and
// measures one run of main (§3.3's instrumentation brackets the program,
// excluding page setup, but instantiation — which the timer in the JS
// loader includes — is inside the span).
func (p *Profile) MeasureWasm(art *compiler.Artifact) (*Measurement, error) {
	return p.MeasureWasmWith(art, MeasureOptions{})
}

// MeasureWasmWith measures under per-run engine overrides (tier modes,
// step limits, fault plans, instance pools).
func (p *Profile) MeasureWasmWith(art *compiler.Artifact, opts MeasureOptions) (*Measurement, error) {
	cfg := p.Wasm
	if opts.Mode != wasmvm.TierBoth {
		cfg.Mode = opts.Mode
	}
	if opts.StepLimit != 0 {
		cfg.StepLimit = opts.StepLimit
	}
	if opts.Faults != nil {
		cfg.Faults = opts.Faults
	}
	if art.Opts.Toolchain == compiler.Emscripten {
		cfg.GrowGranularityPages = 256
	}
	// The loader's boundary: instantiate + start call cross JS↔Wasm.
	res, err := compiler.RunWasmPooled(art, cfg, opts.VMPool)
	if err != nil {
		return nil, err
	}
	cycles := res.Cycles + 2*p.CtxSwitch + float64(res.GrowOps)*p.CtxSwitch
	return &Measurement{
		ExecMS:   p.MSFromCycles(cycles),
		MemoryKB: float64(res.MemoryBytes+p.WasmMemOverhead) / 1024,
		Result:   res,
	}, nil
}

// MeasureJS runs the artifact's compiled JavaScript.
func (p *Profile) MeasureJS(art *compiler.Artifact) (*Measurement, error) {
	return p.MeasureJSWith(art, MeasureOptions{})
}

// MeasureJSWith measures the compiled JavaScript under per-run engine
// overrides.
func (p *Profile) MeasureJSWith(art *compiler.Artifact, opts MeasureOptions) (*Measurement, error) {
	cfg := p.JS
	switch opts.Mode {
	case wasmvm.TierBasicOnly:
		cfg.JITEnabled = false // --no-opt
	case wasmvm.TierOptOnly:
		return nil, ErrTierMode
	}
	if opts.StepLimit != 0 {
		cfg.StepLimit = opts.StepLimit
	}
	if opts.Faults != nil {
		cfg.Faults = opts.Faults
	}
	res, err := compiler.RunJS(art, cfg)
	if err != nil {
		return nil, err
	}
	return &Measurement{
		ExecMS:   p.MSFromCycles(res.Cycles),
		MemoryKB: float64(res.MemoryBytes) / 1024,
		Result:   res,
	}, nil
}

// CtxSwitchNS measures the §4.5 context-switch microbenchmark: the time for
// one Wasm↔JS round trip, in nanoseconds of virtual time.
func (p *Profile) CtxSwitchNS() float64 {
	return p.MSFromCycles(2*p.CtxSwitch) * 1e6
}
