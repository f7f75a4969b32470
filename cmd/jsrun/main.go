// Command jsrun executes a JavaScript source file on the study's JS engine
// under a browser profile, reporting execution time, the DevTools JS-heap
// metric, and output.
//
// Usage:
//
//	jsrun prog.js
//	jsrun -browser firefox -no-jit prog.js   # the paper's --no-opt setting
//	jsrun -tierup-threshold 50 prog.js       # hotness before JIT tier-up
//	jsrun -profile prog.js                   # per-function virtual-cycle profile
package main

import (
	"flag"
	"fmt"
	"os"

	"wasmbench/internal/browser"
	"wasmbench/internal/jsvm"
	"wasmbench/internal/obsv"
)

func main() {
	browserFlag := flag.String("browser", "chrome", "browser profile: chrome, firefox, edge")
	platformFlag := flag.String("platform", "desktop", "platform: desktop or mobile")
	noJIT := flag.Bool("no-jit", false, "disable the optimizing JIT (--no-opt)")
	tierUpThreshold := flag.Uint64("tierup-threshold", 0, "hotness (calls + loop iterations) before JIT tier-up; 0 keeps the browser profile's default")
	profileFlag := flag.Bool("profile", false, "print a per-function virtual-cycle profile")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: jsrun [flags] <program.js>")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
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
	if *noJIT {
		prof.JS.JITEnabled = false
	}
	if *tierUpThreshold != 0 {
		prof.JS.TierUpThreshold = *tierUpThreshold
	}
	var coll *obsv.Collector
	if *traceOut != "" {
		coll = &obsv.Collector{}
		prof.JS.Tracer = coll
	}
	if *profileFlag {
		prof.JS.Profile = true
	}
	vm := jsvm.New(prof.JS)
	if _, err := vm.Run(string(src)); err != nil {
		fatal(err)
	}
	for _, o := range vm.Output {
		fmt.Println(o)
	}
	if v, ok := vm.Global("__exit"); ok {
		fmt.Printf("exit: %d\n", v.ToInt32())
	}
	fmt.Printf("time: %.3f ms (%s)\n", prof.MSFromCycles(vm.Cycles()), prof.Name())
	fmt.Printf("memory: %.1f KB JS heap (peak, excl. ArrayBuffer stores %.1f KB)\n",
		float64(vm.PeakHeapBytes())/1024, float64(vm.PeakExternalBytes())/1024)
	fmt.Printf("steps: %d  gc runs: %d  tier-ups: %d\n", vm.Steps(), vm.GCCount(), vm.TierUps())
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
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jsrun:", err)
	os.Exit(1)
}
