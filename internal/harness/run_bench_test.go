package harness

import (
	"testing"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/ir"
)

// BenchmarkRunCellsMultiProfile measures the compile-once/measure-many
// grid the artifact cache targets: one benchmark at one size, measured on
// every browser profile. With the cache the toolchain runs once per
// iteration; without it every profile recompiles the identical artifact.
func BenchmarkRunCellsMultiProfile(b *testing.B) {
	bench, err := benchsuite.ByName("gemm")
	if err != nil {
		b.Fatal(err)
	}
	var cells []Cell
	for _, p := range browser.AllProfiles() {
		cells = append(cells, Cell{
			Bench: bench, Size: benchsuite.XS, Level: ir.O2, Lang: "wasm", Profile: p,
		})
	}
	run := func(b *testing.B, opt RunOptions) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			res, _ := RunCellsWith(cells, opt)
			if err := FirstError(res); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cached", func(b *testing.B) {
		run(b, RunOptions{Workers: 2})
	})
	b.Run("uncached", func(b *testing.B) {
		run(b, RunOptions{Workers: 2, DisableCache: true})
	})
	// Pool set created fresh each iteration: the first profile captures the
	// artifact's snapshot and the rest clone it instead of re-running
	// module init.
	b.Run("pooled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, _ := RunCellsWith(cells, RunOptions{Workers: 2, SharedVMPools: NewVMPools(nil, nil)})
			if err := FirstError(res); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Steady-state service shape: one artifact cache and one pool set
	// survive across iterations, so after the first sweep every checkout is
	// a snapshot clone and nothing recompiles or re-validates.
	b.Run("pooled-shared", func(b *testing.B) {
		pools := NewVMPools(nil, nil)
		cache := NewArtifactCache()
		for i := 0; i < b.N; i++ {
			res, _ := RunCellsWith(cells, RunOptions{Workers: 2, SharedVMPools: pools, Cache: cache})
			if err := FirstError(res); err != nil {
				b.Fatal(err)
			}
		}
	})
}
