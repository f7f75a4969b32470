package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"strconv"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func (r result) write(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// outcome is the terminal class of one operation (a Table 2
// regeneration, a checked Table 2 cell, or a served request).
type outcome int

const (
	outOK      outcome = iota
	outFailed          // errored: transport error, failed status, or engine error
	outShed            // refused by admission control
	outTimeout         // exceeded its deadline
	outWrong           // completed with output that disagrees with the reference
)

// tally counts operations by outcome. Every attempted operation lands in
// exactly one class.
type tally struct {
	Attempted, OK, Failed, Shed, TimedOut, Wrong int
}

func (t *tally) record(o outcome) {
	t.Attempted++
	switch o {
	case outOK:
		t.OK++
	case outShed:
		t.Shed++
	case outTimeout:
		t.TimedOut++
	case outWrong:
		t.Wrong++
	default:
		t.Failed++
	}
}

// balanced reports the accounting identity.
func (t tally) balanced() bool {
	return t.Attempted == t.OK+t.Failed+t.Shed+t.TimedOut+t.Wrong
}

func (t tally) notOK() int { return t.Attempted - t.OK }

// successRate is the share of attempted operations that completed with
// correct output (1 − error rate).
func (t tally) successRate() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.OK) / float64(t.Attempted)
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, io.ErrUnexpectedEOF
}
