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
	"wasmbench/internal/codegen"
	"wasmbench/internal/compiler"
	"wasmbench/internal/ir"
	"wasmbench/internal/jsvm"
	"wasmbench/internal/wasmvm"
)

var updateLedger = flag.Bool("update", false, "regenerate testdata/wasm_ledger.txt")

// wasmLedgerFile holds every ledger section: the Wasm cells first, then the
// JS cells (keys carry a /js/ field), then the x86 cells (keys end in /x86),
// then the programs outside the kernel grid (keys start table9/ or
// table10/).
const wasmLedgerFile = "testdata/wasm_ledger.txt"

// ledgerRaceStride thins the JS and x86 sections under -race: only every
// ledgerRaceStride-th kernel runs there. The Wasm section always runs in
// full, and `go test ./...` without -race checks every cell.
const ledgerRaceStride = 8

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

// jsLedgerModes are the JS engine's tier settings: tier-up on, and the
// interpreter pinned (--no-opt).
var jsLedgerModes = []struct {
	name  string
	basic bool
}{
	{"both", false},
	{"basic", true},
}

// ledgerFloat renders a float in the shortest round-trippable form, so any
// change to a charge or to the order of float additions shows up.
func ledgerFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// outputHash is FNV-1a over the rendered output channel.
func outputHash(out []codegen.OutputEvent) uint64 {
	h := fnv.New64a()
	for _, o := range out {
		h.Write([]byte(o.String()))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// wasmLedgerLine renders one cell's virtual metrics. Stats.AOTCycles is
// left out: it records which dispatcher served the optimizing tier, not
// what the run cost.
func wasmLedgerLine(key string, r *compiler.Result) string {
	s := r.WasmStats
	return fmt.Sprintf("%s cycles=%s steps=%d basic=%s opt=%s tierups=%d growops=%d mem=%d memsum=%016x exit=%d out=%016x",
		key, ledgerFloat(r.Cycles), r.Steps, ledgerFloat(s.BasicCycles), ledgerFloat(s.OptCycles),
		s.TierUps, s.GrowOps, r.MemoryBytes, r.MemChecksum, r.Exit, outputHash(r.Output))
}

// jsLedgerLine runs one JS cell the way MeasureJSWith does and renders its
// virtual metrics, including the Table 12 arithmetic-operator counts.
func jsLedgerLine(key string, p *Profile, art *compiler.Artifact, basic bool) (string, error) {
	cfg := p.JS
	if basic {
		cfg.JITEnabled = false
	}
	vm := jsvm.New(cfg)
	if _, err := vm.Run(art.JS); err != nil {
		return "", err
	}
	var exit int32
	if v, ok := vm.Global("__exit"); ok {
		exit = v.ToInt32()
	}
	out := make([]codegen.OutputEvent, len(vm.Output))
	for i, o := range vm.Output {
		out[i] = codegen.OutputEvent{Kind: o.Kind, I: o.I, F: o.F, S: o.S}
	}
	return fmt.Sprintf("%s cycles=%s steps=%d heap=%d ext=%d gcs=%d tierups=%d %s exit=%d out=%016x",
		key, ledgerFloat(vm.Cycles()), vm.Steps(), vm.PeakHeapBytes(), vm.PeakExternalBytes(),
		vm.GCCount(), vm.TierUps(), arithField(vm.ArithCounts().Map()),
		exit, outputHash(out)), nil
}

// x86LedgerLine renders one native cell's virtual metrics.
func x86LedgerLine(key string, r *compiler.Result) string {
	return fmt.Sprintf("%s cycles=%s steps=%d mem=%d memsum=%016x exit=%d out=%016x",
		key, ledgerFloat(r.Cycles), r.Steps, r.MemoryBytes, r.MemChecksum, r.Exit, outputHash(r.Output))
}

// ledgerSection names the section a ledger key belongs to.
func ledgerSection(key string) string {
	parts := strings.Split(key, "/")
	switch {
	case parts[0] == "table9" || parts[0] == "table10":
		return "programs"
	case len(parts) > 4 && parts[4] == "js":
		return "js"
	case len(parts) > 4 && parts[4] == "x86":
		return "x86"
	}
	return "wasm"
}

// ledgerCompile builds one kernel at -O2 and size XS for one target.
func ledgerCompile(t *testing.T, b *benchsuite.Benchmark, tc compiler.Toolchain, target compiler.Target) *compiler.Artifact {
	return ledgerCompileAt(t, b, tc, target, ir.O2)
}

// ledgerCompileAt builds one kernel at level lv and size XS for one target.
func ledgerCompileAt(t *testing.T, b *benchsuite.Benchmark, tc compiler.Toolchain, target compiler.Target, lv ir.OptLevel) *compiler.Artifact {
	t.Helper()
	art, err := compiler.Compile(b.Source, compiler.Options{
		Opt:        lv,
		Toolchain:  tc,
		Defines:    b.Defines(benchsuite.XS),
		HeapLimit:  b.HeapLimitBytes(benchsuite.XS),
		ModuleName: b.Name,
		Targets:    []compiler.Target{target},
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", b.Name, tc, err)
	}
	return art
}

// ledgerKernels lists the kernels a section runs; thin sections keep every
// ledgerRaceStride-th kernel under -race.
func ledgerKernels(thin bool) []*benchsuite.Benchmark {
	all := benchsuite.All()
	if !thin || !raceEnabled {
		return all
	}
	var out []*benchsuite.Benchmark
	for i, b := range all {
		if i%ledgerRaceStride == 0 {
			out = append(out, b)
		}
	}
	return out
}

// TestWasmLedger recomputes the golden Wasm virtual-metrics ledger — the
// 41 kernels × {cheerp, emscripten} at -O2 and size XS, under every tier
// mode on the two desktop profiles whose tier-up thresholds differ — and
// diffs it against the committed file. An intentional model change
// regenerates it with -update, so the change shows up as a reviewed diff.
func TestWasmLedger(t *testing.T) {
	profiles := []*Profile{Chrome(Desktop), Firefox(Desktop)}
	var lines []string
	for _, b := range ledgerKernels(false) {
		for _, tc := range []compiler.Toolchain{compiler.Cheerp, compiler.Emscripten} {
			art := ledgerCompile(t, b, tc, compiler.TargetWasm)
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
	checkLedger(t, "wasm", lines, true)
}

// jsLedgerLevels are the other -O levels a served request accepts (see
// TestJSLedger); -O4 is absent because no request names it.
var jsLedgerLevels = []ir.OptLevel{ir.O0, ir.O1, ir.O3, ir.Os, ir.Oz, ir.Ofast}

// TestJSLedger is the JS section: 41 kernels × {cheerp, emscripten} at -O2
// and size XS, with tier-up on and with the interpreter pinned, on both
// desktop profiles — cycles, steps, peak heap, external bytes, GCs,
// tier-ups, the Table 12 operator counts, the exit code and the output —
// and the same kernels at every other level a served request accepts, with
// tier-up on, on chrome-desktop: the whole JS space of a cold serve sweep.
func TestJSLedger(t *testing.T) {
	chrome := Chrome(Desktop)
	profiles := []*Profile{chrome, Firefox(Desktop)}
	var lines []string
	line := func(key string, p *Profile, art *compiler.Artifact, basic bool) {
		l, err := jsLedgerLine(key, p, art, basic)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		lines = append(lines, l)
	}
	for _, b := range ledgerKernels(true) {
		for _, tc := range []compiler.Toolchain{compiler.Cheerp, compiler.Emscripten} {
			art := ledgerCompile(t, b, tc, compiler.TargetJS)
			for _, m := range jsLedgerModes {
				for _, p := range profiles {
					line(fmt.Sprintf("%s/%s/O2/XS/js/%s/%s", b.Name, tc, m.name, p.Name()), p, art, m.basic)
				}
			}
			for _, lv := range jsLedgerLevels {
				art := ledgerCompileAt(t, b, tc, compiler.TargetJS, lv)
				line(fmt.Sprintf("%s/%s/%s/XS/js/both/%s", b.Name, tc, strings.TrimPrefix(lv.String(), "-"), chrome.Name()), chrome, art, false)
			}
		}
	}
	checkLedger(t, "js", lines, !raceEnabled)
}

// TestX86Ledger is the native section: the 41 kernels' Cheerp builds at -O2
// and size XS on the x86 VM. Emscripten builds are absent because their
// 256-page malloc chunk does not fit the x86 VM's stack-plus-heap limit.
func TestX86Ledger(t *testing.T) {
	var lines []string
	for _, b := range ledgerKernels(true) {
		art := ledgerCompile(t, b, compiler.Cheerp, compiler.TargetX86)
		key := fmt.Sprintf("%s/%s/O2/XS/x86", b.Name, compiler.Cheerp)
		r, err := compiler.RunX86(art, codegen.DefaultX86Config())
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		lines = append(lines, x86LedgerLine(key, r))
	}
	checkLedger(t, "x86", lines, !raceEnabled)
}

// checkLedger diffs one section's recomputed lines against the committed
// file, in order. With full unset (a thinned -race run) each recomputed
// line is matched by key instead and the section's size is not checked.
// Under -update it rewrites the section in place, keeping the others.
func checkLedger(t *testing.T, section string, lines []string, full bool) {
	t.Helper()
	path := filepath.FromSlash(wasmLedgerFile)
	var file []string
	if b, err := os.ReadFile(path); err == nil {
		file = strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	} else if !*updateLedger {
		t.Fatalf("%v (regenerate with go test -run Ledger -update)", err)
	}
	bySection := map[string][]string{}
	for _, l := range file {
		if l == "" {
			continue
		}
		key, _, _ := strings.Cut(l, " ")
		s := ledgerSection(key)
		bySection[s] = append(bySection[s], l)
	}
	if *updateLedger {
		if !full {
			t.Fatalf("-update needs a full run (without -race)")
		}
		bySection[section] = lines
		var all []string
		for _, s := range []string{"wasm", "js", "x86", "programs"} {
			all = append(all, bySection[s]...)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(all, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d %s cells to %s", len(lines), section, path)
		return
	}
	want := bySection[section]
	if !full {
		byKey := map[string]string{}
		for _, l := range want {
			key, _, _ := strings.Cut(l, " ")
			byKey[key] = l
		}
		picked := make([]string, len(lines))
		for i, l := range lines {
			key, _, _ := strings.Cut(l, " ")
			picked[i] = byKey[key]
		}
		want = picked
	}
	if len(want) != len(lines) {
		t.Errorf("%s ledger has %d cells, recomputed %d", section, len(want), len(lines))
	}
	diffs := 0
	for i := 0; i < len(want) && i < len(lines); i++ {
		if want[i] != lines[i] {
			if diffs < 10 {
				t.Errorf("%s ledger cell %d changed:\n  want %s\n  got  %s", section, i, want[i], lines[i])
			}
			diffs++
		}
	}
	if diffs > 0 {
		t.Errorf("%d of %d %s ledger cells changed", diffs, len(lines), section)
	}
}

// programKey turns a program name into a ledger key part: keys end at the
// first space, so spaces become underscores.
func programKey(name string) string { return strings.ReplaceAll(name, " ", "_") }

// arithField renders the Table 12 arithmetic-operator groups in ledger
// order.
func arithField(ops map[string]uint64) string {
	return fmt.Sprintf("arith=%d,%d,%d,%d,%d,%d,%d",
		ops["ADD"], ops["MUL"], ops["DIV"], ops["REM"], ops["SHIFT"], ops["AND"], ops["OR"])
}

// programCell is one line of the programs section: a hand-written JS
// program, or a real-world Wasm build measured on a profile (nil: under
// wasmvm.DefaultConfig(), as Table 12 once ran Long.js).
type programCell struct {
	key     string
	js      string
	wasmSrc string
	opts    compiler.Options
	profile *Profile
	// race keeps the cell under -race: every ledgerRaceStride-th
	// hand-written program and the Long.js and Hyphenopoly Wasm builds.
	// Table 10's JS sides and FFmpeg's shards (up to 470 M steps each) run
	// only without -race.
	race bool
}

// programCells lists the programs outside the kernel grid, as the paper
// tables measure them on desktop Chrome: Table 9's hand-written JS, then
// per Table 10 experiment its JS side and its Wasm side (Emscripten, -Oz,
// module named after the application; FFmpeg once per worker shard, with
// its frame range and module "ffmpeg-w<i>"). The Long.js Wasm builds also
// run under wasmvm.DefaultConfig() with module "longjs", the configuration
// Table 12 used to count their operations.
func programCells() []programCell {
	chrome := Chrome(Desktop)
	var cells []programCell
	for i, m := range benchsuite.ManualBenchmarks() {
		cells = append(cells, programCell{key: "table9/" + programKey(m.Name) + "/js/" + chrome.Name(), js: m.Source,
			profile: chrome, race: i%ledgerRaceStride == 0})
	}
	wasmOpts := func(module string, defines map[string]string) compiler.Options {
		return compiler.Options{Opt: ir.Oz, Toolchain: compiler.Emscripten, ModuleName: module,
			Defines: defines, Targets: []compiler.Target{compiler.TargetWasm}}
	}
	for _, op := range benchsuite.RealWorld() {
		base := "table10/" + op.App + "/" + programKey(op.Op)
		cells = append(cells, programCell{key: base + "/js/" + chrome.Name(), js: op.JSSrc, profile: chrome})
		if op.Workers <= 1 {
			cells = append(cells, programCell{key: base + "/wasm/" + chrome.Name(), wasmSrc: op.WasmSrc,
				opts: wasmOpts(op.App, nil), profile: chrome, race: true})
		} else {
			per := (benchsuite.FFmpegFrames + op.Workers - 1) / op.Workers
			for w := 0; w < op.Workers; w++ {
				lo, hi := w*per, min((w+1)*per, benchsuite.FFmpegFrames)
				cells = append(cells, programCell{key: fmt.Sprintf("%s/wasm-w%d/%s", base, w, chrome.Name()),
					wasmSrc: op.WasmSrc, profile: chrome,
					opts: wasmOpts(fmt.Sprintf("ffmpeg-w%d", w), map[string]string{"LO": fmt.Sprint(lo), "HI": fmt.Sprint(hi)})})
			}
		}
		if op.App == "Long.js" {
			cells = append(cells, programCell{key: base + "/wasm-longjs/default", wasmSrc: op.WasmSrc,
				opts: wasmOpts("longjs", nil), race: true})
		}
	}
	return cells
}

// TestProgramLedger is the programs section: every program of Tables 9,
// 10 and 12 that is not a kernel cell, at its full input. JS lines carry
// the JS ledger fields; Wasm lines the Wasm fields plus the Table 12
// operator counts. It also checks that Long.js's Wasm operation counts do
// not depend on the profile's cost table or on the module name, so Table
// 12 can read them off Table 10's runs.
// Under -race only the cells marked race run (see programCell).
func TestProgramLedger(t *testing.T) {
	var lines []string
	arith := map[string]string{}
	for _, c := range programCells() {
		if raceEnabled && !c.race {
			continue
		}
		if c.js != "" {
			line, err := jsLedgerLine(c.key, c.profile, &compiler.Artifact{JS: c.js}, false)
			if err != nil {
				t.Fatalf("%s: %v", c.key, err)
			}
			lines = append(lines, line)
			continue
		}
		art, err := compiler.Compile(c.wasmSrc, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		var r *compiler.Result
		if c.profile != nil {
			m, err := c.profile.MeasureWasm(art)
			if err != nil {
				t.Fatalf("%s: %v", c.key, err)
			}
			r = m.Result
		} else if r, err = compiler.RunWasm(art, wasmvm.DefaultConfig()); err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		ops := arithField(r.WasmStats.ArithOps())
		lines = append(lines, wasmLedgerLine(c.key, r)+" "+ops)
		arith[c.key] = ops
	}
	for key, ops := range arith {
		if base, ok := strings.CutSuffix(key, "/wasm-longjs/default"); ok {
			if chrome, ran := arith[base+"/wasm/chrome-desktop"]; ran && chrome != ops {
				t.Errorf("%s: Wasm %s under chrome-desktop, %s under the default config", base, chrome, ops)
			}
		}
	}
	checkLedger(t, "programs", lines, !raceEnabled)
}
