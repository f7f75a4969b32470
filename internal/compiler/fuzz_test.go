package compiler_test

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/compiler"
	"wasmbench/internal/difftest"
	"wasmbench/internal/ir"
)

// fuzzAllocCap bounds what one compile of a fuzz input may allocate. The
// largest kernel seed allocates a few MiB at any level; a program that
// expands past this is a memory bomb the front end must refuse.
const fuzzAllocCap = 256 << 20

// FuzzMinicParse drives arbitrary C source through the toolchain's input
// boundary, as minicc reads it: preprocess → parse → check → IR → the
// optimization pipeline at any level → Wasm, JS and x86 code generation,
// for either toolchain. The contract: an artifact or an error matching
// compiler.ErrInvalidSource, never a panic, and no more than fuzzAllocCap
// allocated per compile. Seeds: the 41 kernels with their XS defines
// written as #define lines, and the difftest corpus.
func FuzzMinicParse(f *testing.F) {
	for _, b := range benchsuite.All() {
		f.Add(withDefines(b.Source, b.Defines(benchsuite.XS)), uint8(ir.O2))
	}
	for _, e := range difftest.Corpus() {
		f.Add(e.Source, uint8(ir.O2))
	}
	f.Fuzz(func(t *testing.T, src string, config uint8) {
		opts := compiler.Options{
			Opt:       ir.OptLevel(config % uint8(ir.Ofast+1)),
			Toolchain: compiler.Toolchain(config / uint8(ir.Ofast+1) % 2),
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := compiler.Compile(src, opts)
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, compiler.ErrInvalidSource) {
			t.Fatalf("%v/%v: untyped error: %v", opts.Opt, opts.Toolchain, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > fuzzAllocCap {
			t.Fatalf("%v/%v: compile allocated %d MiB, cap %d MiB",
				opts.Opt, opts.Toolchain, alloc>>20, fuzzAllocCap>>20)
		}
	})
}

// withDefines prefixes src with one #define per entry, in name order.
func withDefines(src string, defines map[string]string) string {
	names := make([]string, 0, len(defines))
	for n := range defines {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "#define %s %s\n", n, defines[n])
	}
	return b.String() + src
}
