package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Trace exporters. All output is deterministic: a given event stream and
// profile set always serializes to identical bytes (fields are emitted in
// fixed order and map iteration is avoided or sorted).

// jnum renders a float as a JSON number.
func jnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// jstr renders a string as a JSON string.
func jstr(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// usFromCycles converts a virtual-cycle timestamp to trace microseconds
// (cycles are nanosecond-scale at the 1 GHz reference clock).
func usFromCycles(c float64) float64 { return c / 1e3 }

// WriteChromeTrace serializes events (and optional per-function profiles)
// in the Chrome trace_event JSON format, loadable in chrome://tracing and
// Perfetto. Tracks become named threads; CallEnter/CallExit map to B/E
// duration events, instants (tier-up, GC, grow) to "i", and spans
// (compile passes, cells) to "X" complete events. Profiles are appended as
// consecutive slices on a per-track "profile:" thread with calls and
// self/total cycles in args.
func WriteChromeTrace(w io.Writer, events []Event, profiles []FuncProfile) error {
	// Assign thread ids to tracks in first-appearance order (deterministic
	// for a deterministic stream).
	tids := map[string]int{}
	var tracks []string
	tidOf := func(track string) int {
		if track == "" {
			track = "events"
		}
		id, ok := tids[track]
		if !ok {
			id = len(tracks) + 1
			tids[track] = id
			tracks = append(tracks, track)
		}
		return id
	}
	for _, e := range events {
		tidOf(e.Track)
	}
	profTrack := func(p FuncProfile) string {
		if p.Track == "" {
			return "profile"
		}
		return "profile:" + p.Track
	}
	ps := append([]FuncProfile(nil), profiles...)
	SortProfiles(ps)
	for _, p := range ps {
		tidOf(profTrack(p))
	}

	var b strings.Builder
	b.WriteString("{\"traceEvents\":[")
	first := true
	emit := func(line string) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		b.WriteString(line)
	}
	for _, track := range tracks {
		emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}}`,
			tids[track], jstr(track)))
	}
	for _, e := range events {
		tid := tidOf(e.Track)
		ts := jnum(usFromCycles(e.TS))
		switch e.Kind {
		case KindCallEnter:
			emit(fmt.Sprintf(`{"name":%s,"cat":"call","ph":"B","pid":1,"tid":%d,"ts":%s}`,
				jstr(e.Name), tid, ts))
		case KindCallExit:
			emit(fmt.Sprintf(`{"name":%s,"cat":"call","ph":"E","pid":1,"tid":%d,"ts":%s}`,
				jstr(e.Name), tid, ts))
		case KindTierUp, KindMemGrow, KindAOTCompile:
			emit(fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"i","s":"t","pid":1,"tid":%d,"ts":%s,"args":{"a":%s,"b":%s}}`,
				jstr(e.Kind.String()+" "+e.Name), jstr(e.Kind.String()), tid, ts, jnum(e.A), jnum(e.B)))
		case KindGCCycle:
			emit(fmt.Sprintf(`{"name":"gc-cycle","cat":"gc","ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"args":{"freed_bytes":%s,"live_objects":%s}}`,
				tid, ts, jnum(usFromCycles(e.Dur)), jnum(e.A), jnum(e.B)))
		case KindCompilePass:
			emit(fmt.Sprintf(`{"name":%s,"cat":"compile","ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"args":{"nodes_before":%s,"nodes_after":%s}}`,
				jstr(e.Name), tid, ts, jnum(usFromCycles(e.Dur)), jnum(e.A), jnum(e.B)))
		case KindCellStart:
			emit(fmt.Sprintf(`{"name":%s,"cat":"cell","ph":"i","s":"p","pid":1,"tid":%d,"ts":%s}`,
				jstr(e.Name), tid, ts))
		case KindCellDone:
			emit(fmt.Sprintf(`{"name":%s,"cat":"cell","ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"args":{"worker":%s}}`,
				jstr(e.Name), tid, jnum(usFromCycles(e.TS-e.Dur)), jnum(usFromCycles(e.Dur)), jnum(e.A)))
		case KindFault:
			emit(fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"i","s":"t","pid":1,"tid":%d,"ts":%s,"args":{"a":%s,"b":%s}}`,
				jstr(e.Kind.String()+" "+e.Name), jstr(e.Kind.String()), tid, ts, jnum(e.A), jnum(e.B)))
		case KindTruncation:
			// Global (s:"g") instant so the loss is visible on every track.
			emit(fmt.Sprintf(`{"name":%s,"cat":"truncation","ph":"i","s":"g","pid":1,"tid":%d,"ts":%s,"args":{"events_lost":%s}}`,
				jstr(fmt.Sprintf("TRUNCATED: %.0f events lost (%s)", e.A, e.Name)), tid, ts, jnum(e.A)))
		}
	}
	// Per-function profile slices: consecutive spans sized by total cycles.
	cursor := map[int]float64{}
	for _, p := range ps {
		tid := tidOf(profTrack(p))
		start := cursor[tid]
		dur := usFromCycles(p.TotalCycles)
		cursor[tid] = start + dur
		emit(fmt.Sprintf(`{"name":%s,"cat":"profile","ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"args":{"calls":%d,"self_cycles":%s,"total_cycles":%s%s}}`,
			jstr(p.Name), tid, jnum(start), jnum(dur), p.Calls,
			jnum(p.SelfCycles), jnum(p.TotalCycles), classArgs(p.Classes)))
	}
	b.WriteString("\n]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func classArgs(classes []ClassCount) string {
	var b strings.Builder
	for _, c := range classes {
		if c.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, ",%s:%d", jstr("n_"+c.Class), c.Count)
	}
	return b.String()
}

// WriteFolded serializes the trace's call tree in the folded-stacks text
// format consumed by flamegraph.pl and speedscope: one line per stack,
// frames joined by ';', followed by the stack's self cycles.
func WriteFolded(w io.Writer, events []Event) error {
	trees := Flame(events)
	tracks := make([]string, 0, len(trees))
	for t := range trees {
		tracks = append(tracks, t)
	}
	sort.Strings(tracks)
	var b strings.Builder
	var walk func(prefix string, nodes []*FlameNode)
	walk = func(prefix string, nodes []*FlameNode) {
		for _, n := range nodes {
			stack := prefix + n.Name
			if c := int64(n.SelfCycles + 0.5); c > 0 {
				fmt.Fprintf(&b, "%s %d\n", stack, c)
			}
			walk(stack+";", n.Children)
		}
	}
	for _, t := range tracks {
		prefix := ""
		if t != "" {
			prefix = t + ";"
		}
		walk(prefix, trees[t])
	}
	// Truncation markers become a synthetic stack weighted by the number of
	// lost events, so flame graphs show the hole instead of hiding it.
	for _, e := range events {
		if e.Kind == KindTruncation {
			fmt.Fprintf(&b, "[TRUNCATED: %s] %.0f\n", e.Name, e.A)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CompilePassTable renders KindCompilePass events as a plain-text table:
// pass name, work estimate, and IR node delta.
func CompilePassTable(events []Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s %10s %10s %8s\n", "pass", "work", "before", "after", "delta")
	var totalWork float64
	for _, e := range events {
		if e.Kind != KindCompilePass {
			continue
		}
		fmt.Fprintf(&b, "%-28s %12.0f %10.0f %10.0f %+8.0f\n",
			e.Name, e.Dur, e.A, e.B, e.B-e.A)
		totalWork += e.Dur
	}
	fmt.Fprintf(&b, "%-28s %12.0f\n", "total", totalWork)
	for _, e := range events {
		if e.Kind == KindTruncation {
			fmt.Fprintf(&b, "TRUNCATED: %.0f events lost (%s)\n", e.A, e.Name)
		}
	}
	return b.String()
}
