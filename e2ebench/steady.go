package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the steadiness report reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs every workload n times with distinct seeds, each run in
// its own process, rotating the workload order every round so that slow
// drift in machine speed lands on all workloads alike instead of on
// whichever ran last. It then prints, per workload and end-to-end metric,
// the median, the quartiles and the spread (q3−q1)/median against the
// metric's bound. It reads BENCHMARK.json from the working directory.
func steadiness(n int, stdout, stderr io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{}
	var failures []string
	for round := 0; round < n; round++ {
		for k := range spec.Workloads {
			w := spec.Workloads[(round+k)%len(spec.Workloads)].Name
			seed := strconv.Itoa(1000 + round)
			cmd := exec.Command(self, "--workload", w, "--seed", seed,
				"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0")
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %s: %w", w, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %s: %w", w, seed, err)
			}
			if !res.Correct {
				failures = append(failures, fmt.Sprintf("%s seed %s: %d of %d failed", w, seed, res.Failed, res.Attempted))
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w][name] = append(values[w][name], m.Value)
			}
			fmt.Fprintf(stderr, "steady: round %d/%d %s seed %s done\n", round+1, n, w, seed)
		}
	}
	fmt.Fprintf(stdout, "%-11s %-15s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, e := range spec.EndToEnd {
			vs := values[w.Name][e.Name]
			med := median(vs)
			q1, q3 := quartiles(vs)
			spread := math.Abs(q3-q1) / med
			verdict := "within bound/3"
			switch {
			case e.Name == "setup_s":
				verdict = "(spread not judged)"
			case spread > e.Bound:
				verdict = "OVER BOUND"
			case spread > e.Bound/3:
				verdict = "within bound, over bound/3"
			}
			fmt.Fprintf(stdout, "%-11s %-15s %12.5g %12.5g %12.5g %7.2f%% %5.0f%%  %s\n",
				w.Name, e.Name, med, q1, q3, 100*spread, 100*e.Bound, verdict)
		}
	}
	for _, f := range failures {
		fmt.Fprintln(stdout, "incorrect run:", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d runs reported incorrect output", len(failures))
	}
	return nil
}
