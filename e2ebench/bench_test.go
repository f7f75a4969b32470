package main

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"wasmbench/internal/serve"
)

func TestWarmRoundsArePureAndStratified(t *testing.T) {
	a := warmRound(7, 3)
	if !reflect.DeepEqual(a, warmRound(7, 3)) {
		t.Fatal("same seed and round gave different requests")
	}
	if reflect.DeepEqual(a, warmRound(8, 3)) {
		t.Fatal("different seeds gave the same requests")
	}
	if reflect.DeepEqual(a, warmRound(7, 4)) {
		t.Fatal("different rounds gave the same requests")
	}
	perKernel := map[string]int{}
	for _, r := range a {
		if r.Size != "M" || r.Lang != "wasm" || r.Level != "2" || r.Toolchain != "" {
			t.Fatalf("serve-warm request outside the workload: %+v", r)
		}
		perKernel[r.Bench]++
	}
	if len(perKernel) != len(kernels) {
		t.Fatalf("round covers %d kernels, want %d", len(perKernel), len(kernels))
	}
	for k, n := range perKernel {
		if n != warmPasses {
			t.Fatalf("kernel %s appears %d times in a round, want %d", k, n, warmPasses)
		}
	}
}

func TestColdRoundsArePureAndNeverRepeatAnArtifact(t *testing.T) {
	rounds := coldRounds(42, 0)
	if !reflect.DeepEqual(rounds, coldRounds(42, 0)) {
		t.Fatal("same seed gave different rounds")
	}
	if reflect.DeepEqual(rounds, coldRounds(43, 0)) {
		t.Fatal("different seeds gave the same rounds")
	}
	if reflect.DeepEqual(rounds, coldRounds(42, 1)) {
		t.Fatal("different cycles gave the same rounds")
	}
	perClass := len(kernels) * len(coldLevels)
	for cycle := 0; cycle < 2; cycle++ {
		rounds := coldRounds(42, cycle)
		if want := perClass / (coldRoundSize / len(coldClasses)); len(rounds) != want {
			t.Fatalf("%d rounds, want %d", len(rounds), want)
		}
		seen := map[serve.Request]bool{}
		for i, round := range rounds {
			if len(round) != coldRoundSize {
				t.Fatalf("round %d has %d requests", i, len(round))
			}
			classes := map[coldClass]int{}
			for _, r := range round {
				// The artifact is everything but the profile, which is fixed.
				if seen[r] {
					t.Fatalf("cycle %d: artifact repeated: %+v", cycle, r)
				}
				seen[r] = true
				classes[coldClass{r.Toolchain, r.Lang}]++
			}
			for _, c := range coldClasses {
				if classes[c] != coldRoundSize/len(coldClasses) {
					t.Fatalf("round %d: class %v has %d requests", i, c, classes[c])
				}
			}
		}
	}
}

func TestTallyAccounting(t *testing.T) {
	ok := &serve.Response{Status: serve.StatusOK, Steps: 10, MemChecksum: 5}
	ref := reference{steps: 10, checksum: 5}
	cases := []struct {
		s    sample
		ref  reference
		want outcome
	}{
		{sample{resp: ok}, ref, outOK},
		{sample{resp: ok}, reference{steps: 11, checksum: 5}, outWrong},
		{sample{resp: ok}, reference{steps: 10, checksum: 6}, outWrong},
		{sample{resp: ok}, reference{err: errors.New("reference failed")}, outFailed},
		{sample{err: errors.New("connection reset")}, ref, outFailed},
		{sample{resp: &serve.Response{Status: serve.StatusShed}}, ref, outShed},
		{sample{resp: &serve.Response{Status: serve.StatusTimeout}}, ref, outTimeout},
		{sample{resp: &serve.Response{Status: serve.StatusFailed}}, ref, outFailed},
		{sample{resp: &serve.Response{Status: serve.StatusBreakerOpen}}, ref, outFailed},
	}
	var tl tally
	for i, c := range cases {
		got := classify(c.s, c.ref)
		if got != c.want {
			t.Errorf("case %d: outcome %d, want %d", i, got, c.want)
		}
		tl.record(got)
	}
	if !tl.balanced() || tl.Attempted != len(cases) {
		t.Fatalf("accounting broken: %+v", tl)
	}
	if tl.OK != 1 || tl.Wrong != 2 || tl.Failed != 4 || tl.Shed != 1 || tl.TimedOut != 1 {
		t.Fatalf("wrong classes: %+v", tl)
	}
	if tl.notOK() != len(cases)-1 || tl.successRate() != 1/float64(len(cases)) {
		t.Fatalf("notOK %d successRate %v", tl.notOK(), tl.successRate())
	}
}

func TestPercentileHelpers(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 50, 5}, {ten, 95, 10}, {ten, 99, 10}, {ten, 10, 1},
		{hundred, 50, 50}, {hundred, 95, 95}, {hundred, 99, 99}, {hundred, 100, 100},
		{[]float64{3}, 99, 3}, {nil, 50, 0},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if beyond(1000, 99) != 10 || beyond(999, 99) != 9 || beyond(200, 95) != 10 || beyond(6, 99) != 0 {
		t.Error("beyond miscounts the samples past a percentile")
	}
	if median(ten) != 5.5 || median([]float64{3, 1, 2}) != 2 || median(nil) != 0 {
		t.Error("median")
	}
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{ten, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 7}, 4.5, 7.5},
		{[]float64{0.9, 1.1, 1.0, 1.3, 0.95, 1.05, 1.2, 0.85, 1.0, 1.15}, 0.9375, 1.1625},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestStageLayer(t *testing.T) {
	for name, want := range map[string]string{
		"parse": lFront, "transform": lFront, "check": lFront, "ir-build": lIRBuild,
		"codegen-wasm": lGenWasm, "codegen-js": lGenJS, "codegen-x86": lGenX86,
		"dce": lIRPasses, "inline": lIRPasses,
	} {
		if got := stageLayer(name); got != want {
			t.Errorf("stageLayer(%q) = %q, want %q", name, got, want)
		}
	}
}
