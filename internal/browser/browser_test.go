package browser

import (
	"testing"

	"wasmbench/internal/compiler"
	"wasmbench/internal/ir"
	"wasmbench/internal/wasm"
	"wasmbench/internal/wasmvm"
)

const tinyProg = `
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 2000; i++) {
		s += i & 15;
	}
	print_i((long)s);
	return s & 255;
}
`

func compileTiny(t *testing.T) *compiler.Artifact {
	t.Helper()
	art, err := compiler.Compile(tinyProg, compiler.Options{Opt: ir.O2, ModuleName: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	return art
}

func TestProfilesAreDistinct(t *testing.T) {
	art := compileTiny(t)
	seen := map[string]float64{}
	for _, p := range AllProfiles() {
		wm, err := p.MeasureWasm(art)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if wm.ExecMS <= 0 {
			t.Errorf("%s: non-positive time", p.Name())
		}
		seen[p.Name()] = wm.ExecMS
	}
	if len(seen) != 6 {
		t.Fatalf("expected 6 deployments, got %d", len(seen))
	}
	// Mobile must be slower than the same browser's desktop.
	for _, b := range []string{"chrome", "firefox", "edge"} {
		if seen[b+"-mobile"] <= seen[b+"-desktop"] {
			t.Errorf("%s: mobile (%v) should be slower than desktop (%v)",
				b, seen[b+"-mobile"], seen[b+"-desktop"])
		}
	}
}

func TestMeasurementDeterminism(t *testing.T) {
	art := compileTiny(t)
	p := Chrome(Desktop)
	a, err := p.MeasureWasm(art)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Chrome(Desktop).MeasureWasm(art)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecMS != b.ExecMS || a.MemoryKB != b.MemoryKB {
		t.Errorf("virtual-time measurement must be deterministic: %v/%v vs %v/%v",
			a.ExecMS, a.MemoryKB, b.ExecMS, b.MemoryKB)
	}
}

func TestJSMemoryBaselines(t *testing.T) {
	art := compileTiny(t)
	chrome, err := Chrome(Desktop).MeasureJS(art)
	if err != nil {
		t.Fatal(err)
	}
	firefox, err := Firefox(Desktop).MeasureJS(art)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Tables 4/6: Chrome's JS baseline ≈ 880 KB, Firefox ≈ 510.
	if chrome.MemoryKB < 850 || chrome.MemoryKB > 950 {
		t.Errorf("chrome JS memory = %.1f KB, want ≈ 880", chrome.MemoryKB)
	}
	if firefox.MemoryKB < 480 || firefox.MemoryKB > 580 {
		t.Errorf("firefox JS memory = %.1f KB, want ≈ 510", firefox.MemoryKB)
	}
}

func TestCtxSwitchOrdering(t *testing.T) {
	chrome := Chrome(Desktop).CtxSwitchNS()
	firefox := Firefox(Desktop).CtxSwitchNS()
	ratio := firefox / chrome
	// Paper §4.5: Firefox ≈ 0.13x of Chrome.
	if ratio < 0.08 || ratio > 0.25 {
		t.Errorf("firefox/chrome context switch = %.3f, want ≈ 0.13", ratio)
	}
}

func TestWasmOutputMatchesJS(t *testing.T) {
	art := compileTiny(t)
	p := Chrome(Desktop)
	wm, err := p.MeasureWasm(art)
	if err != nil {
		t.Fatal(err)
	}
	jm, err := p.MeasureJS(art)
	if err != nil {
		t.Fatal(err)
	}
	ws, js := wm.Result.OutputStrings(), jm.Result.OutputStrings()
	if len(ws) != 1 || len(js) != 1 || ws[0] != js[0] {
		t.Errorf("outputs differ: %v vs %v", ws, js)
	}
}

// TestJSSourceMeasurement measures a hand-written program the way the
// harness does: MeasureJS on an artifact that carries only JS.
func TestJSSourceMeasurement(t *testing.T) {
	p := Chrome(Desktop)
	m, err := p.MeasureJS(&compiler.Artifact{JS: `
var s = 0;
for (var i = 0; i < 1000; i++) s += i;
print_i(s);
var __exit = 0;
`})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Result.Output) != 1 || m.Result.Output[0].I != 499500 {
		t.Errorf("manual JS output: %v", m.Result.Output)
	}
}

// growCapModule is a minimal module exporting grow(n) = memory.grow(n).
func growCapModule() *wasm.Module {
	m := &wasm.Module{}
	tI_I := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	m.Mem = &wasm.MemType{Min: 1}
	m.Funcs = append(m.Funcs, wasm.Function{Type: tI_I, Name: "grow", Body: []wasm.Instr{
		{Op: wasm.OpLocalGet, A: 0}, {Op: wasm.OpMemoryGrow}, {Op: wasm.OpEnd},
	}})
	m.Exports = append(m.Exports, wasm.Export{Name: "grow", Kind: wasm.ExportFunc, Idx: 0})
	return m
}

// tabBudgetPages is a ≈300 MB per-tab linear-memory budget (the study's
// Mi 6 class of device) in 64 KiB pages.
const tabBudgetPages = 4800

// TestTabCapGrowDeniedAtBudget runs a real module on a mobile profile's
// engine with its page cap set to a tab budget: growing to exactly the
// budget succeeds, growing past it fails with −1 and leaves the size
// unchanged — the spec-correct surface of a mobile tab OOM kill.
func TestTabCapGrowDeniedAtBudget(t *testing.T) {
	p := Chrome(Mobile)
	cfg := p.Wasm
	cfg.MaxPages = tabBudgetPages
	cfg.GrowGranularityPages = 1
	vm, err := wasmvm.New(growCapModule(), 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Instantiate(); err != nil {
		t.Fatal(err)
	}
	grow := func(n int32) int32 {
		res, err := vm.Call("grow", wasmvm.I32(n))
		if err != nil {
			t.Fatalf("grow(%d): %v", n, err)
		}
		return wasmvm.AsI32(res[0])
	}
	// Fill to exactly the 4800-page budget.
	if r := grow(int32(tabBudgetPages) - 1); r != 1 {
		t.Fatalf("grow to budget returned %d, want old size 1", r)
	}
	if got := vm.Memory().Pages(); got != tabBudgetPages {
		t.Fatalf("pages = %d, want %d", got, tabBudgetPages)
	}
	// One page past the budget must fail without resizing.
	if r := grow(1); r != -1 {
		t.Errorf("grow past tab budget = %d, want -1", r)
	}
	if got := vm.Memory().Pages(); got != tabBudgetPages {
		t.Errorf("failed grow resized memory: %d pages", got)
	}
}

// TestTabCapPoolReclaim drives an instance pool bounded at two instances
// like a mobile tab manager: the pool admits exactly the budget, an
// over-budget checkout under ColdFallback runs cold (the tab-kill
// analogue — no blocking, no error), and closing the tabs reclaims their
// slots, so a foreground tab with another engine config is admitted into
// the pool rather than run cold.
func TestTabCapPoolReclaim(t *testing.T) {
	cfgA := Chrome(Mobile).Wasm
	cfgA.MaxPages = tabBudgetPages
	cfgA.GrowGranularityPages = 1
	const budget = 2
	pool := wasmvm.NewInstancePool(growCapModule(), 0, wasmvm.PoolOptions{
		MaxInstances: budget,
		ColdFallback: true,
	})

	vm1, _, err := pool.Get(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	vm2, _, err := pool.Get(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	// Budget exhausted: the third concurrent tab runs cold instead of
	// waiting for a kill.
	vm3, cloned, err := pool.Get(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if cloned {
		t.Error("over-budget checkout reported a clone")
	}
	if s := pool.Stats(); s.ColdFallbacks != 1 || s.Live != budget {
		t.Errorf("after over-budget checkout: %+v, want 1 cold fallback at live=%d", s, budget)
	}
	pool.Put(vm3) // cold instance is outside the pool: dropped, not admitted
	pool.Put(vm1)
	pool.Put(vm2)
	if s := pool.Stats(); s.Live != 0 {
		t.Errorf("live = %d after closing every tab, want 0", s.Live)
	}

	// A foreground tab with a different engine config takes a reclaimed slot.
	cfgB := cfgA
	cfgB.TierUpThreshold = 77
	vmB, cloned, err := pool.Get(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	s := pool.Stats()
	if !cloned || s.ColdFallbacks != 1 || s.Live != 1 {
		t.Errorf("foreground tab: cloned=%v, %+v; want a pooled clone, still 1 cold fallback", cloned, s)
	}
	pool.Put(vmB)
}
