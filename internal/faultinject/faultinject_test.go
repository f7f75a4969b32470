package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if p.Fire(HarnessPanic, "x") || p.HeapOOM("h", 1<<30) || p.Stall("f") {
		t.Fatal("nil plan fired")
	}
	if p.Enabled() || p.Cell("c", nil) != nil || p.Records() != nil || p.TotalFired() != 0 {
		t.Fatal("nil plan not inert")
	}
}

func TestCountRule(t *testing.T) {
	p := NewPlan(1, Rule{Point: CompilerPass, Skip: 1, Count: 2})
	var got []bool
	for i := 0; i < 5; i++ {
		got = append(got, p.Fire(CompilerPass, "atax"))
	}
	want := []bool{false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("check %d: fired=%v want %v (seq %v)", i, got[i], want[i], got)
		}
	}
	if n := p.TotalFired(); n != 2 {
		t.Fatalf("TotalFired = %d, want 2", n)
	}
	// Independent keys have independent sequences.
	if !p.Fire(CompilerPass, "mvt") {
		// skip=1: first check must not fire
	} else {
		t.Fatal("fresh key fired at seq 0 despite skip=1")
	}
}

func TestProbDeterminismAcrossPlans(t *testing.T) {
	decisions := func(seed uint64) []bool {
		p := NewPlan(seed, Rule{Point: HarnessPanic, Prob: 0.3})
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, p.Fire(HarnessPanic, fmt.Sprintf("cell-%d", i%7)))
		}
		return out
	}
	a, b := decisions(42), decisions(42)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical plans", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("prob=0.3 fired %d/%d — not probabilistic", fired, len(a))
	}
	// A different seed must produce a different decision stream.
	c := decisions(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical decision streams")
	}
}

func TestLimitRules(t *testing.T) {
	p := NewPlan(0, Rule{Point: JSHeapOOM, Limit: 1 << 20})
	if p.HeapOOM("h", 1<<20) {
		t.Fatal("allocation at the cap failed")
	}
	if !p.HeapOOM("h", 1<<20+1) {
		t.Fatal("allocation past the cap succeeded")
	}
	// Limit rules do not respond to plain Fire.
	if p.Fire(JSHeapOOM, "h") {
		t.Fatal("limit rule fired via Fire")
	}
}

func TestMatchRestrictsToCell(t *testing.T) {
	p := NewPlan(7, Rule{Point: HarnessPanic, Count: 10, Match: "atax/M"})
	hit := p.Cell("atax/M/wasm/-O2@chrome-desktop", nil)
	miss := p.Cell("mvt/M/wasm/-O2@chrome-desktop", nil)
	if !hit.Fire(HarnessPanic, "worker") {
		t.Fatal("matching cell did not fire")
	}
	if miss.Fire(HarnessPanic, "worker") {
		t.Fatal("non-matching cell fired")
	}
}

func TestStallBlocksAndCancels(t *testing.T) {
	p := NewPlan(3, Rule{Point: WasmStall, Count: 1, Stall: 20 * time.Millisecond})
	start := time.Now()
	if !p.Stall("main") {
		t.Fatal("stall did not fire")
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("stall returned after %v, want ≈20ms", d)
	}
	// Second check: count exhausted, no stall.
	start = time.Now()
	if p.Stall("main") {
		t.Fatal("stall fired twice with count=1")
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("non-firing stall blocked for %v", d)
	}
	// Cancelled stalls return early.
	p2 := NewPlan(3, Rule{Point: WasmStall, Count: 1, Stall: 10 * time.Second})
	cancel := make(chan struct{})
	close(cancel)
	cp := p2.Cell("cell", cancel)
	start = time.Now()
	if !cp.Stall("main") {
		t.Fatal("cancelled stall did not report firing")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cancelled stall blocked for %v", d)
	}
}

func TestRecordsAndCounts(t *testing.T) {
	p := NewPlan(1, Rule{Point: CompilerPass, Count: 1}, Rule{Point: HarnessPanic, Count: 1})
	c := p.Cell("atax/M", nil)
	c.Fire(CompilerPass, "atax")
	c.Fire(HarnessPanic, "atax")
	c.Fire(CompilerPass, "atax") // exhausted
	recs := p.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %v", recs)
	}
	if recs[0].Point != CompilerPass || recs[0].Key != "atax/M|atax" || recs[0].Seq != 0 {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	counts := p.Counts()
	if counts[CompilerPass] != 1 || counts[HarnessPanic] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestConcurrentFireIsSafe(t *testing.T) {
	p := NewPlan(9, Rule{Point: HarnessPanic, Count: 3})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cp := p.Cell(fmt.Sprintf("cell-%d", w), nil)
			for i := 0; i < 100; i++ {
				cp.Fire(HarnessPanic, "worker")
			}
		}(w)
	}
	wg.Wait()
	// Count rules are per-key: each of the 8 cells fires exactly 3 times
	// regardless of interleaving.
	if n := p.TotalFired(); n != 8*3 {
		t.Fatalf("TotalFired = %d, want 24", n)
	}
}

func TestInjectedError(t *testing.T) {
	err := Errorf(CompilerPass, "pass %s failed", "fold")
	if !IsInjected(err) {
		t.Fatal("IsInjected(Errorf(...)) = false")
	}
	wrapped := fmt.Errorf("cell: %w", err)
	if !IsInjected(wrapped) {
		t.Fatal("IsInjected lost through wrapping")
	}
	if IsInjected(errors.New("plain")) || IsInjected(nil) {
		t.Fatal("IsInjected false positive")
	}
}

func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec("wasm.stall:count=2,stall=100ms; js.heap-oom:limit=1048576 ;harness.worker-panic:prob=0.05,match=atax")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("rules = %+v", rules)
	}
	if rules[0].Point != WasmStall || rules[0].Count != 2 || rules[0].Stall != 100*time.Millisecond {
		t.Fatalf("rule 0 = %+v", rules[0])
	}
	if rules[1].Point != JSHeapOOM || rules[1].Limit != 1<<20 {
		t.Fatalf("rule 1 = %+v", rules[1])
	}
	if rules[2].Prob != 0.05 || rules[2].Match != "atax" {
		t.Fatalf("rule 2 = %+v", rules[2])
	}
	for _, bad := range []string{
		"nonsense",
		"no.such.point:count=1",
		"wasm.stall:count=x",
		"wasm.stall:match=justmatch", // no firing mode
		"harness.worker-panic:prob=1.5",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	// Points that only re-routed a measurement or copied a natural
	// failure are gone: the CLI rejects them as unknown, and the known
	// list it prints is exactly the surviving six.
	const known = "(known: compiler.pass harness.worker-panic js.heap-oom serve.admit serve.shed wasm.stall)"
	for _, gone := range []string{"js.jit-compile", "wasm.aot-translate", "wasm.snapshot-restore", "wasm.grow-deny"} {
		_, err := ParseSpec(gone + ":count=1")
		want := fmt.Sprintf("faultinject: unknown point %q %s", gone, known)
		if err == nil || err.Error() != want {
			t.Errorf("ParseSpec(%s) error = %v, want %q", gone, err, want)
		}
	}
	if len(AllPoints) != 6 {
		t.Errorf("AllPoints has %d entries, want 6: %v", len(AllPoints), AllPoints)
	}
}
