package difftest

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/codegen"
	"wasmbench/internal/compiler"
	"wasmbench/internal/harness"
	"wasmbench/internal/ir"
	"wasmbench/internal/wasm"
)

// wasmBytes canonicalizes an IR program as its emitted Wasm binary —
// byte-equal binaries mean structurally identical programs as far as any
// backend can observe.
func wasmBytes(t *testing.T, p *ir.Program) []byte {
	t.Helper()
	m, err := codegen.Wasm(p, codegen.WasmOptions{ModuleName: "irprop"})
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	b, err := wasm.Encode(m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b
}

// TestPassIdempotence: running any single optimization pass a second time
// must be a no-op. A pass that keeps finding work on its own output is
// either unstable (pipeline results would depend on scheduling) or
// rewriting semantics. The inliner is exempt by design: it consumes its
// budget across repeated applications (O4 schedules it twice on purpose).
func TestPassIdempotence(t *testing.T) {
	passes := []struct {
		name string
		fn   func(*ir.Program)
	}{
		{"constfold", ir.ConstFold},
		{"dce", ir.DCE},
		{"licm", ir.LICM},
		{"rematconst", ir.RematConst},
		{"consthoist", ir.ConstHoist},
		{"argpromote", ir.ArgPromote},
		{"shrinkwrap-libcalls", ir.ShrinkwrapLibcalls},
		{"globalopt", func(p *ir.Program) { ir.GlobalOpt(p, false) }},
	}
	for _, ps := range passes {
		ps := ps
		t.Run(ps.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				src := Generate(seed, GenOptions{FloatFree: seed%2 == 0}).Render()
				p, err := compiler.BuildIR(src, compiler.Options{Opt: ir.O0, ModuleName: "irprop"})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				ps.fn(p)
				once := wasmBytes(t, p)
				ps.fn(p)
				twice := wasmBytes(t, p)
				if !bytes.Equal(once, twice) {
					t.Fatalf("seed %d: %s is not idempotent (%d vs %d bytes)",
						seed, ps.name, len(once), len(twice))
				}
			}
		})
	}
}

// TestPipelineConcurrentDeterminism: compiling the same source at the same
// level from many goroutines must yield byte-identical Wasm binaries —
// the pass pipeline may not share mutable state across compilations.
func TestPipelineConcurrentDeterminism(t *testing.T) {
	src := Generate(3, GenOptions{}).Render()
	ref, err := compiler.Compile(src, compiler.Options{Opt: ir.O3, ModuleName: "det"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	got := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			art, err := compiler.Compile(src, compiler.Options{Opt: ir.O3, ModuleName: "det"})
			if err == nil {
				got[i] = art.WasmBinary
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if !bytes.Equal(got[i], ref.WasmBinary) {
			t.Fatalf("concurrent compile %d differs from sequential reference", i)
		}
	}
}

// TestHarnessWorkersCacheInvariance: the pass-pipeline output reaching the
// harness must not depend on the -workers pool size or on whether the
// artifact came from the compile cache. Fingerprint-identical cells must
// carry byte-identical Wasm across every configuration.
func TestHarnessWorkersCacheInvariance(t *testing.T) {
	var bench *benchsuite.Benchmark
	for _, b := range benchsuite.All() {
		if b.Name == "atax" {
			bench = b
		}
	}
	if bench == nil {
		t.Fatal("benchsuite kernel atax not found")
	}
	mkCells := func() []harness.Cell {
		var cells []harness.Cell
		for _, lv := range []ir.OptLevel{ir.O0, ir.O2} {
			// Two profiles per level: same fingerprint, so the cache path
			// dedups them while the no-cache path compiles each.
			cells = append(cells,
				harness.Cell{Bench: bench, Size: benchsuite.XS, Level: lv, Lang: "wasm",
					Profile: browser.Chrome(browser.Desktop)},
				harness.Cell{Bench: bench, Size: benchsuite.XS, Level: lv, Lang: "wasm",
					Profile: browser.Firefox(browser.Desktop)},
			)
		}
		return cells
	}
	type key struct{ cell int }
	ref := map[key][]byte{}
	for _, cfg := range []struct {
		name    string
		workers int
		noCache bool
	}{
		{"w1-cache", 1, false},
		{"w3-cache", 3, false},
		{"w1-nocache", 1, true},
		{"w3-nocache", 3, true},
	} {
		res, _ := harness.RunCellsWith(mkCells(), harness.RunOptions{
			Workers: cfg.workers, DisableCache: cfg.noCache,
		})
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("%s cell %d: %v", cfg.name, i, r.Err)
			}
			bin := r.Art.WasmBinary
			if prev, ok := ref[key{i}]; !ok {
				ref[key{i}] = bin
			} else if !bytes.Equal(prev, bin) {
				t.Errorf("%s cell %d: artifact differs from first configuration", cfg.name, i)
			}
		}
	}
}

// TestFingerprintStability: the compile cache keys on Fingerprint; two
// option sets that compile differently must never collide, and identical
// inputs must agree across processes (the fingerprint is content-derived,
// not pointer- or time-derived).
func TestFingerprintStability(t *testing.T) {
	src := Generate(5, GenOptions{}).Render()
	a := compiler.Fingerprint(src, compiler.Options{Opt: ir.O2, ModuleName: "m"})
	b := compiler.Fingerprint(src, compiler.Options{Opt: ir.O2, ModuleName: "m"})
	if a != b {
		t.Fatal("same input, different fingerprints")
	}
	seen := map[string]string{a: "O2"}
	for _, v := range []struct {
		label string
		opts  compiler.Options
	}{
		{"O3", compiler.Options{Opt: ir.O3, ModuleName: "m"}},
		{"O2+define", compiler.Options{Opt: ir.O2, ModuleName: "m",
			Defines: map[string]string{"N": "4"}}},
		{"O2+heap", compiler.Options{Opt: ir.O2, ModuleName: "m", HeapLimit: 1 << 20}},
	} {
		fp := compiler.Fingerprint(src, v.opts)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("fingerprint collision: %s vs %s", prev, v.label)
		}
		seen[fp] = v.label
	}
	if fp2 := compiler.Fingerprint(src+" ", compiler.Options{Opt: ir.O2, ModuleName: "m"}); fp2 == a {
		t.Fatal(fmt.Sprintf("source change did not change fingerprint %s", a))
	}
}
