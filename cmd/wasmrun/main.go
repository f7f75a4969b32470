// Command wasmrun executes a WebAssembly binary under a browser profile and
// reports the study's metrics: execution time (virtual ms), memory, dynamic
// instruction counts, and program output.
//
// Usage:
//
//	wasmrun prog.wasm
//	wasmrun -browser firefox -platform mobile prog.wasm
//	wasmrun -mode basic prog.wasm      # --liftoff --no-wasm-tier-up
//	wasmrun -mode opt prog.wasm        # --no-liftoff
//	wasmrun -profile prog.wasm         # per-function virtual-cycle profile
//	wasmrun -trace-out t.json prog.wasm  # Chrome trace_event JSON
//	wasmrun -telemetry-snapshot - prog.wasm  # metrics snapshot to stdout
//	wasmrun -no-aot prog.wasm          # optimizing tier on the stack loop
//	                                   # (identical metrics, slower dispatch)
//	wasmrun -tierup-threshold 50 prog.wasm  # hotness before tier-up (like
//	                                        # tuning V8's --wasm-tiering-budget)
package main

import (
	"flag"
	"fmt"
	"os"

	"wasmbench/internal/browser"
	"wasmbench/internal/compiler"
	"wasmbench/internal/obsv"
	"wasmbench/internal/telemetry"
	"wasmbench/internal/wasm"
	"wasmbench/internal/wasmvm"
)

func main() {
	browserFlag := flag.String("browser", "chrome", "browser profile: chrome, firefox, edge")
	platformFlag := flag.String("platform", "desktop", "platform: desktop or mobile")
	modeFlag := flag.String("mode", "both", "compiler tiers: both, basic, opt")
	entry := flag.String("entry", "main", "exported function to call")
	profileFlag := flag.Bool("profile", false, "print a per-function virtual-cycle profile")
	noAOT := flag.Bool("no-aot", false, "run the optimizing tier on the stack loop instead of AOT superblocks (virtual metrics are identical; hot dispatch is slower)")
	tierUpThreshold := flag.Uint64("tierup-threshold", 0, "hotness (calls + loop back-edges) before tier-up; 0 keeps the browser profile's default")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file (load in chrome://tracing or Perfetto)")
	foldedOut := flag.String("folded-out", "", "write folded stacks (flamegraph.pl / speedscope input)")
	teleSnap := flag.String("telemetry-snapshot", "", "dump a telemetry metrics snapshot after the run ('-' = text to stdout; a path ending in .json gets JSON)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wasmrun [flags] <module.wasm>")
		os.Exit(2)
	}
	bin, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	mod, err := wasm.Decode(bin)
	if err != nil {
		fatal(err)
	}
	plat := browser.Desktop
	if *platformFlag == "mobile" {
		plat = browser.Mobile
	}
	var prof *browser.Profile
	switch *browserFlag {
	case "chrome":
		prof = browser.Chrome(plat)
	case "firefox":
		prof = browser.Firefox(plat)
	case "edge":
		prof = browser.Edge(plat)
	default:
		fatal(fmt.Errorf("unknown browser %q", *browserFlag))
	}
	cfg := prof.Wasm
	switch *modeFlag {
	case "both":
		cfg.Mode = wasmvm.TierBoth
	case "basic":
		cfg.Mode = wasmvm.TierBasicOnly
	case "opt":
		cfg.Mode = wasmvm.TierOptOnly
	default:
		fatal(fmt.Errorf("unknown mode %q", *modeFlag))
	}
	var coll *obsv.Collector
	if *traceOut != "" || *foldedOut != "" {
		coll = &obsv.Collector{}
		cfg.Tracer = coll
	}
	if *profileFlag {
		cfg.Profile = true
	}
	cfg.DisableAOTTier = *noAOT
	if *tierUpThreshold != 0 {
		cfg.TierUpThreshold = *tierUpThreshold
	}
	var reg *telemetry.Registry
	if *teleSnap != "" {
		reg = telemetry.NewRegistry()
		cfg.Instruments = telemetry.NewVMInstruments(reg)
	}

	vm, err := wasmvm.New(mod, len(bin), cfg)
	if err != nil {
		fatal(err)
	}
	if err := vm.Instantiate(); err != nil {
		fatal(err)
	}
	out := compiler.BindWasmImports(vm)
	res, err := vm.Call(*entry)
	if err != nil {
		fatal(err)
	}
	for _, o := range *out {
		fmt.Println(o)
	}
	if len(res) == 1 {
		fmt.Printf("exit: %d\n", wasmvm.AsI32(res[0]))
	}
	st := vm.Stats()
	fmt.Printf("time: %.3f ms (%s)\n", prof.MSFromCycles(vm.Cycles()), prof.Name())
	fmt.Printf("memory: %.1f KB (linear high-water + module overhead)\n",
		float64(vm.PeakMemoryBytes())/1024)
	fmt.Printf("instructions: %d (tier-ups: %d, memory.grow: %d)\n",
		st.Steps, st.TierUps, st.GrowOps)
	fmt.Printf("tier cycles: basic=%.0f opt=%.0f aot=%.0f (aot bodies: %d)\n",
		st.BasicCycles, st.OptCycles, st.AOTCycles, vm.AOTTranslated())
	ops := st.ArithOps()
	fmt.Printf("arith ops: ADD=%d MUL=%d DIV=%d REM=%d SHIFT=%d AND=%d OR=%d\n",
		ops["ADD"], ops["MUL"], ops["DIV"], ops["REM"], ops["SHIFT"], ops["AND"], ops["OR"])
	if *profileFlag {
		fmt.Print(obsv.ProfileTable(vm.Profile()))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := obsv.WriteChromeTrace(f, coll.Events(), vm.Profile()); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d events -> %s\n", coll.Len(), *traceOut)
	}
	if *foldedOut != "" {
		f, err := os.Create(*foldedOut)
		if err != nil {
			fatal(err)
		}
		if err := obsv.WriteFolded(f, coll.Events()); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *teleSnap != "" {
		if err := telemetry.WriteSnapshot(os.Stdout, *teleSnap, reg.Snapshot()); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wasmrun:", err)
	os.Exit(1)
}
