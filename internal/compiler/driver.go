// Package compiler is the toolchain driver: it runs the full §3 pipeline —
// source transformation, preprocessing, parsing, checking, runtime linking,
// IR lowering, the optimization pipeline, and code generation for the three
// targets (Wasm, Cheerp-style JS, x86-like native).
//
// Two toolchain flavours mirror the paper's §4.2.2 comparison:
//
//   - Cheerp: 64 KiB allocation granularity (memory grows page-exact, so
//     large inputs trigger frequent grow requests that cross the JS
//     boundary), compact integral-float constants, no Wasm peephole
//     cleanup.
//   - Emscripten: 16 MiB allocation chunks and an up-front 16 MiB heap
//     (more memory, fewer grows), direct f64.const emission, and a
//     peephole pass over the generated Wasm (set/get → tee, dead pushes).
package compiler

import (
	"errors"
	"fmt"
	"strconv"

	"wasmbench/internal/codegen"
	"wasmbench/internal/faultinject"
	"wasmbench/internal/ir"
	"wasmbench/internal/minic"
	"wasmbench/internal/obsv"
	"wasmbench/internal/telemetry"
	"wasmbench/internal/wasm"
)

// ErrInvalidSource matches (errors.Is) every error by which the front end
// rejects a program: preprocessing, syntax, type checking and IR lowering.
// The error's message is the front end's own diagnostic.
var ErrInvalidSource = errors.New("compiler: invalid source")

// sourceError marks a front-end rejection without changing its message.
type sourceError struct{ err error }

func (e sourceError) Error() string        { return e.err.Error() }
func (e sourceError) Unwrap() error        { return e.err }
func (e sourceError) Is(target error) bool { return target == ErrInvalidSource }

// Toolchain selects the C-to-Web toolchain flavour.
type Toolchain int

// Toolchains.
const (
	Cheerp Toolchain = iota
	Emscripten
)

func (t Toolchain) String() string {
	if t == Emscripten {
		return "emscripten"
	}
	return "cheerp"
}

// Options configures a compilation.
type Options struct {
	Opt       ir.OptLevel
	Toolchain Toolchain
	// Defines are -D macro definitions (the study's input-size selectors).
	Defines map[string]string
	// StackSize / HeapLimit override the toolchain defaults
	// (cheerp-linear-stack-size / cheerp-linear-heap-size, §3.2).
	StackSize uint32
	HeapLimit uint32
	// ModuleName labels the artifacts.
	ModuleName string
	// Targets selects the backends to run; empty = all.
	Targets []Target
	// Tracer receives KindCompilePass events for every pipeline stage and
	// optimization pass, with deterministic node-count work estimates.
	Tracer obsv.Tracer
	// Faults arms deterministic fault injection (transient optimization-
	// pipeline failure). nil is inert. Excluded from Fingerprint, so armed
	// plans do not perturb artifact-cache keys.
	Faults *faultinject.Plan
	// Instruments publishes live counters to a telemetry registry (compile
	// totals, per-pass work histogram). nil is inert; like Tracer it is
	// excluded from Fingerprint because it never changes the artifact.
	Instruments *telemetry.CompilerInstruments
}

// Target is a code generation target.
type Target string

// Targets.
const (
	TargetWasm Target = "wasm"
	TargetJS   Target = "js"
	TargetX86  Target = "x86"
)

// Artifact is the result of a compilation.
type Artifact struct {
	Opts      Options
	Transform *minic.TransformReport

	Module     *wasm.Module
	WasmBinary []byte

	JS string

	X86 *codegen.X86Program
}

// WasmSize returns the Wasm binary size in bytes (the paper's code size
// metric for Wasm).
func (a *Artifact) WasmSize() int { return len(a.WasmBinary) }

// JSSize returns the generated JavaScript size in bytes.
func (a *Artifact) JSSize() int { return len(a.JS) }

// X86Size returns the estimated native code size in bytes.
func (a *Artifact) X86Size() int {
	if a.X86 == nil {
		return 0
	}
	return a.X86.EncodedSize()
}

// WAT renders the module in text format.
func (a *Artifact) WAT() string {
	if a.Module == nil {
		return ""
	}
	return wasm.WAT(a.Module)
}

func wantTarget(opts Options, t Target) bool {
	if len(opts.Targets) == 0 {
		return true
	}
	for _, w := range opts.Targets {
		if w == t {
			return true
		}
	}
	return false
}

// passClock stamps compiler stages onto a tracer with a deterministic
// virtual clock: each stage's duration is its node-count work estimate, so
// the same compilation always produces the same trace.
type passClock struct {
	tracer obsv.Tracer
	inst   *telemetry.CompilerInstruments
	ts     float64
}

func (c *passClock) stage(name string, work, before, after int) {
	if c.inst != nil {
		c.inst.PassWork.Observe(float64(work))
	}
	if c.tracer == nil {
		return
	}
	c.tracer.Emit(obsv.Event{Kind: obsv.KindCompilePass, TS: c.ts,
		Dur: float64(work), Name: name, Track: "compile",
		A: float64(before), B: float64(after)})
	c.ts += float64(work)
}

// BuildIR runs the front half of Compile: preprocessing, parsing,
// checking, runtime linking, IR lowering and the optimization pipeline at
// opts.Opt. Compile generates code from the program it returns and does
// not keep it.
func BuildIR(src string, opts Options) (*ir.Program, error) {
	prog, _, err := buildIR(src, opts, &passClock{tracer: opts.Tracer, inst: opts.Instruments})
	return prog, err
}

func buildIR(src string, opts Options, clock *passClock) (*ir.Program, *minic.TransformReport, error) {
	chunkPages := "1"
	if opts.Toolchain == Emscripten {
		chunkPages = "256"
	}
	defines := map[string]string{"__MALLOC_CHUNK_PAGES": chunkPages}
	for k, v := range opts.Defines {
		defines[k] = v
	}

	full := runtimeSource + "\n" + src
	file, err := minic.ParseSource(full, defines)
	if err != nil {
		return nil, nil, sourceError{err}
	}
	clock.stage("parse", len(full), len(full), len(full))
	report := minic.Transform(file)
	clock.stage("transform", len(full), len(full), len(full))
	if err := minic.Check(file, minic.CheckOptions{}); err != nil {
		return nil, nil, sourceError{err}
	}
	clock.stage("check", len(full), len(full), len(full))

	bopts := ir.DefaultBuildOptions()
	if opts.StackSize != 0 {
		bopts.StackSize = opts.StackSize
	}
	if opts.HeapLimit != 0 {
		bopts.HeapLimit = opts.HeapLimit
	}
	prog, err := ir.Build(file, bopts)
	if err != nil {
		return nil, nil, sourceError{err}
	}
	var hook ir.PassHook
	if opts.Tracer != nil || opts.Instruments != nil {
		n := ir.NodeCount(prog)
		clock.stage("ir-build", n, n, n)
		hook = func(name string, before, after int) {
			clock.stage(name, before, before, after)
		}
	}
	if opts.Faults != nil && opts.Faults.Fire(faultinject.CompilerPass, opts.ModuleName) {
		// Injected optimization-pipeline failure: a later compile advances
		// the sequence number and can succeed.
		if opts.Tracer != nil {
			opts.Tracer.Emit(obsv.Event{Kind: obsv.KindFault, TS: clock.ts,
				Name: string(faultinject.CompilerPass), Track: "compile"})
		}
		return nil, nil, faultinject.Errorf(faultinject.CompilerPass,
			"optimization pipeline failed for %q at -O%d", opts.ModuleName, opts.Opt)
	}
	ir.OptimizeWithHook(prog, opts.Opt, hook)
	if err := prog.Validate(); err != nil {
		return nil, nil, fmt.Errorf("compiler: post-optimization IR invalid: %w", err)
	}

	return prog, report, nil
}

// Compile runs the pipeline on minic source.
func Compile(src string, opts Options) (*Artifact, error) {
	clock := &passClock{tracer: opts.Tracer, inst: opts.Instruments}
	prog, report, err := buildIR(src, opts, clock)
	if err != nil {
		return nil, err
	}
	art := &Artifact{Opts: opts, Transform: report}

	if wantTarget(opts, TargetWasm) {
		wopts := codegen.WasmOptions{
			ModuleName:       opts.ModuleName,
			CompactF64Consts: opts.Toolchain == Cheerp,
		}
		if opts.Toolchain == Emscripten {
			wopts.InitialHeapPages = 256 // 16 MiB committed up front
		}
		m, err := codegen.Wasm(prog, wopts)
		if err != nil {
			return nil, err
		}
		if opts.Toolchain == Emscripten {
			codegen.PeepholeWasm(m)
			if err := wasm.Validate(m); err != nil {
				return nil, fmt.Errorf("compiler: peephole broke module: %w", err)
			}
		}
		bin, err := wasm.Encode(m)
		if err != nil {
			return nil, err
		}
		art.Module = m
		art.WasmBinary = bin
		clock.stage("codegen-wasm", len(bin), len(bin), len(bin))
	}

	if wantTarget(opts, TargetJS) {
		js, err := codegen.JS(prog, codegen.JSOptions{ModuleName: opts.ModuleName})
		if err != nil {
			return nil, err
		}
		art.JS = js
		clock.stage("codegen-js", len(js), len(js), len(js))
	}

	if wantTarget(opts, TargetX86) {
		xp, err := codegen.X86(prog)
		if err != nil {
			return nil, err
		}
		art.X86 = xp
		clock.stage("codegen-x86", xp.StaticInstrCount(), xp.StaticInstrCount(), xp.StaticInstrCount())
	}
	if opts.Instruments != nil {
		opts.Instruments.Compiles.Inc()
	}
	return art, nil
}

// InputSizeDefine renders a numeric -D definition.
func InputSizeDefine(n int) string { return strconv.Itoa(n) }
