package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// SnapshotBucket is one histogram bucket in a snapshot (non-cumulative).
type SnapshotBucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// SnapshotMetric is the frozen value of one instrument.
type SnapshotMetric struct {
	Name string `json:"name"`
	Type string `json:"type"`
	Help string `json:"help,omitempty"`
	// Value holds the counter total or gauge level; unused for histograms.
	Value float64 `json:"value,omitempty"`
	// Histogram payload: Sum/Count plus per-bucket counts. The final
	// bucket (LE = +Inf, rendered as le:null in JSON) is the overflow.
	Sum     float64          `json:"sum,omitempty"`
	Count   uint64           `json:"count,omitempty"`
	Buckets []SnapshotBucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a whole registry, ordered by metric
// name. It is what `benchtab -telemetry-snapshot` and `wasmrun
// -telemetry-snapshot` write for one-shot runs, and what tests assert on.
type Snapshot struct {
	Metrics []SnapshotMetric `json:"metrics"`
}

// Snapshot freezes the registry. A nil registry snapshots to zero metrics.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for _, m := range r.sortedMetrics() {
		sm := SnapshotMetric{Name: m.name, Type: m.kind.String(), Help: m.help}
		switch m.kind {
		case kindCounter:
			sm.Value = m.c.Value()
		case kindGauge:
			sm.Value = m.g.Value()
		case kindHistogram:
			bounds, counts := m.h.Buckets()
			for i, bd := range bounds {
				sm.Buckets = append(sm.Buckets, SnapshotBucket{LE: bd, Count: counts[i]})
			}
			sm.Buckets = append(sm.Buckets, SnapshotBucket{LE: infBound, Count: counts[len(counts)-1]})
			sm.Sum = m.h.Sum()
			for _, c := range counts {
				sm.Count += c
			}
		}
		s.Metrics = append(s.Metrics, sm)
	}
	return s
}

// infBound marks the overflow bucket in snapshots; JSON has no Inf, so
// MarshalJSON maps it to null.
var infBound = math.Inf(1)

// MarshalJSON renders the bucket with le:null for the overflow bucket.
func (b SnapshotBucket) MarshalJSON() ([]byte, error) {
	if b.LE == infBound {
		return []byte(fmt.Sprintf(`{"le":null,"count":%d}`, b.Count)), nil
	}
	return []byte(fmt.Sprintf(`{"le":%s,"count":%d}`, fnum(b.LE), b.Count)), nil
}

// Text renders the snapshot as an aligned plain-text table: one line per
// counter/gauge, histograms as a header line plus indented buckets that
// actually hold observations.
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, m := range s.Metrics {
		switch m.Type {
		case "histogram":
			fmt.Fprintf(&b, "%-52s count=%d sum=%s\n", m.Name, m.Count, fnum(m.Sum))
			for _, bk := range m.Buckets {
				if bk.Count == 0 {
					continue
				}
				le := "+Inf"
				if bk.LE != infBound {
					le = fnum(bk.LE)
				}
				fmt.Fprintf(&b, "    le=%-12s %d\n", le, bk.Count)
			}
		default:
			fmt.Fprintf(&b, "%-52s %s\n", m.Name, fnum(m.Value))
		}
	}
	return b.String()
}

// WriteJSON serializes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteSnapshot writes a snapshot where a -telemetry-snapshot flag points:
// "-" prints the text table to stdout, a path ending in .json gets
// indented JSON, any other path the text table. A file write is confirmed
// with one line on stdout.
func WriteSnapshot(stdout io.Writer, dst string, s Snapshot) error {
	if dst == "-" {
		_, err := io.WriteString(stdout, s.Text())
		return err
	}
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	if strings.HasSuffix(dst, ".json") {
		err = s.WriteJSON(f)
	} else {
		_, err = f.WriteString(s.Text())
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(stdout, "telemetry snapshot: %d metrics -> %s\n", len(s.Metrics), dst)
	}
	return err
}
