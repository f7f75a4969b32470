package browser

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/compiler"
	"wasmbench/internal/ir"
	"wasmbench/internal/wasmvm"
)

var updateLedger = flag.Bool("update", false, "regenerate testdata/wasm_ledger.txt")

const wasmLedgerFile = "testdata/wasm_ledger.txt"

// wasmLedgerModes are the Table 7 tier settings; each one drives a
// different path through the VM's tier and dispatch machinery.
var wasmLedgerModes = []struct {
	name string
	mode wasmvm.TierMode
}{
	{"both", wasmvm.TierBoth},
	{"basic", wasmvm.TierBasicOnly},
	{"opt", wasmvm.TierOptOnly},
}

// wasmLedgerLine renders one cell's virtual metrics. Floats use the
// shortest round-trippable form, so any change to a charge or to the order
// of float additions shows up. Stats.AOTCycles is left out: it records
// which dispatcher served the optimizing tier, not what the run cost.
func wasmLedgerLine(key string, r *compiler.Result) string {
	s := r.WasmStats
	h := fnv.New64a()
	for _, o := range r.OutputStrings() {
		h.Write([]byte(o))
		h.Write([]byte{'\n'})
	}
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	return fmt.Sprintf("%s cycles=%s steps=%d basic=%s opt=%s tierups=%d growops=%d mem=%d memsum=%016x exit=%d out=%016x",
		key, g(r.Cycles), r.Steps, g(s.BasicCycles), g(s.OptCycles),
		s.TierUps, s.GrowOps, r.MemoryBytes, r.MemChecksum, r.Exit, h.Sum64())
}

// TestWasmLedger recomputes the golden Wasm virtual-metrics ledger — the
// 41 kernels × {cheerp, emscripten} at -O2 and size XS, under every tier
// mode on the two desktop profiles whose tier-up thresholds differ — and
// diffs it against the committed file. An intentional model change
// regenerates it with -update, so the change shows up as a reviewed diff.
func TestWasmLedger(t *testing.T) {
	profiles := []*Profile{Chrome(Desktop), Firefox(Desktop)}
	var lines []string
	for _, b := range benchsuite.All() {
		for _, tc := range []compiler.Toolchain{compiler.Cheerp, compiler.Emscripten} {
			art, err := compiler.Compile(b.Source, compiler.Options{
				Opt:        ir.O2,
				Toolchain:  tc,
				Defines:    b.Defines(benchsuite.XS),
				HeapLimit:  b.HeapLimitBytes(benchsuite.XS),
				ModuleName: b.Name,
				Targets:    []compiler.Target{compiler.TargetWasm},
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, tc, err)
			}
			for _, m := range wasmLedgerModes {
				for _, p := range profiles {
					key := fmt.Sprintf("%s/%s/O2/XS/%s/%s", b.Name, tc, m.name, p.Name())
					meas, err := p.MeasureWasmWith(art, MeasureOptions{Mode: m.mode})
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					lines = append(lines, wasmLedgerLine(key, meas.Result))
				}
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.FromSlash(wasmLedgerFile)
	if *updateLedger {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(lines), path)
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestWasmLedger -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(wantBytes), "\n"), "\n")
	if len(want) != len(lines) {
		t.Errorf("ledger has %d cells, recomputed %d", len(want), len(lines))
	}
	diffs := 0
	for i := 0; i < len(want) && i < len(lines); i++ {
		if want[i] != lines[i] {
			if diffs < 10 {
				t.Errorf("ledger cell %d changed:\n  want %s\n  got  %s", i, want[i], lines[i])
			}
			diffs++
		}
	}
	if diffs > 0 {
		t.Errorf("%d of %d ledger cells changed", diffs, len(lines))
	}
}
