package jsvm_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/compiler"
	"wasmbench/internal/ir"
	"wasmbench/internal/jsvm"
)

// fuzzStepLimit bounds each fuzz run; the kernel seeds trip it.
const fuzzStepLimit = 20000

// FuzzJSRun drives arbitrary source through the engine's input boundary,
// as jsrun does: parse → compile → Run under a step limit. The contract: a
// result or a typed error (syntax, step limit, call depth, or a thrown
// value such as a RangeError past an engine maximum), never a panic, and
// memory bounded by the steps taken — no step allocates past the engine
// maxima. Seeds: the 41 kernels' emitted JS for both toolchains, every
// snippet in the engine's unit tests, and the lexer's edge cases and
// malformed sources that TestJSFrontEnd pins.
func FuzzJSRun(f *testing.F) {
	for _, b := range benchsuite.All() {
		for _, tc := range []compiler.Toolchain{compiler.Cheerp, compiler.Emscripten} {
			f.Add(kernelJS(f, b, tc, ir.O2))
		}
	}
	for _, file := range jsTestFiles {
		for _, s := range testSnippets(f, file) {
			f.Add(s)
		}
	}
	for _, s := range append(frontEndSnippets(), frontEndMalformed()...) {
		f.Add(s.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		cfg := jsvm.DefaultConfig()
		cfg.StepLimit = fuzzStepLimit
		vm := jsvm.New(cfg)
		_, err := vm.Run(src)
		if err != nil && !typedRunError(err) {
			t.Fatalf("untyped error %T: %v", err, err)
		}
		steps := vm.Steps() + 1
		if ext := vm.PeakExternalBytes(); ext > steps*jsvm.MaxBufferBytes {
			t.Fatalf("%d external bytes in %d steps", ext, steps)
		}
		if heap := vm.PeakHeapBytes() - cfg.EngineBaseline; heap > steps*(16*jsvm.MaxArrayLength+1<<20) {
			t.Fatalf("%d heap bytes in %d steps", heap, steps)
		}
	})
}

// typedRunError reports whether err is one of the engine's typed failures.
func typedRunError(err error) bool {
	if _, thrown := jsvm.ThrownValue(err); thrown {
		return true
	}
	return errors.Is(err, jsvm.ErrJSSyntax) || errors.Is(err, jsvm.ErrJSStepLimit) ||
		errors.Is(err, jsvm.ErrJSDepth)
}

// testSnippets returns the string literals of a test file that hold
// programs (the engine tests' sources).
func testSnippets(tb testing.TB, file string) []string {
	fset := token.NewFileSet()
	parsed, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	ast.Inspect(parsed, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil && len(s) > 8 {
				out = append(out, s)
			}
		}
		return true
	})
	return out
}
