package harness

// Checkpoint persists completed cells so an interrupted sweep can resume
// without re-measuring. The file is append-only JSONL — one record per
// successful cell, written as cells finish — so a crash mid-run loses at
// most the in-flight cells; a truncated final line (torn write) is skipped
// on load. Records are keyed by cell label and guarded by the cell's
// compilation fingerprint: if the benchmark source or configuration
// changed since the checkpoint was written, the stale record is ignored
// and the cell re-runs.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"wasmbench/internal/browser"
	"wasmbench/internal/compiler"
	"wasmbench/internal/wasmvm"
)

// checkpointRecord is the serialized form of one completed cell. It
// captures the deterministic measurement fields the result tables report;
// the artifact and output events are not persisted (a resumed cell has
// Art == nil).
type checkpointRecord struct {
	Label       string  `json:"label"`
	Fingerprint string  `json:"fp"`
	ExecMS      float64 `json:"exec_ms"`
	MemoryKB    float64 `json:"memory_kb"`
	Exit        int32   `json:"exit"`
	Cycles      float64 `json:"cycles"`
	Steps       uint64  `json:"steps"`
	MemoryBytes uint64  `json:"memory_bytes"`
	ExternBytes uint64  `json:"external_bytes,omitempty"`
	MemChecksum uint64  `json:"mem_checksum,omitempty"`
	GrowOps     int     `json:"grow_ops,omitempty"`
	GCs         int     `json:"gcs,omitempty"`
	TierUps     int     `json:"tier_ups,omitempty"`
	BasicCycles float64 `json:"basic_cycles,omitempty"`
	OptCycles   float64 `json:"opt_cycles,omitempty"`
	AOTCycles   float64 `json:"aot_cycles,omitempty"`
}

// Checkpoint is a resumable record of completed cells. Safe for
// concurrent use by the worker pool.
type Checkpoint struct {
	mu   sync.Mutex
	path string
	f    *os.File
	done map[string]checkpointRecord
}

// OpenCheckpoint opens (creating if absent) a checkpoint file, loading any
// previously recorded cells. Corrupt or truncated lines — e.g. the torn
// tail of a crashed run — are skipped, not fatal.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	cp := &Checkpoint{path: path, done: make(map[string]checkpointRecord)}
	if data, err := os.ReadFile(path); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			var rec checkpointRecord
			if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Label == "" {
				continue
			}
			cp.done[rec.Label] = rec
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("harness: open checkpoint: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: open checkpoint: %w", err)
	}
	cp.f = f
	return cp, nil
}

// Lookup returns the checkpointed result for a cell, or ok=false if the
// cell was not recorded or its fingerprint no longer matches (source or
// configuration changed since the checkpoint was written).
func (cp *Checkpoint) Lookup(c Cell) (CellResult, bool) {
	if cp == nil {
		return CellResult{}, false
	}
	cp.mu.Lock()
	rec, ok := cp.done[c.Label()]
	cp.mu.Unlock()
	if !ok || rec.Fingerprint != c.Fingerprint() {
		return CellResult{}, false
	}
	res := &compiler.Result{
		Exit:          rec.Exit,
		Cycles:        rec.Cycles,
		Steps:         rec.Steps,
		MemoryBytes:   rec.MemoryBytes,
		ExternalBytes: rec.ExternBytes,
		MemChecksum:   rec.MemChecksum,
		GrowOps:       rec.GrowOps,
		GCs:           rec.GCs,
		TierUps:       rec.TierUps,
		WasmStats: wasmvm.Stats{
			Steps:       rec.Steps,
			TierUps:     rec.TierUps,
			GrowOps:     rec.GrowOps,
			BasicCycles: rec.BasicCycles,
			OptCycles:   rec.OptCycles,
			AOTCycles:   rec.AOTCycles,
		},
	}
	return CellResult{
		Cell: c,
		Meas: &browser.Measurement{ExecMS: rec.ExecMS, MemoryKB: rec.MemoryKB, Result: res},
	}, true
}

// Record appends a successful cell to the checkpoint. Failed cells are
// never recorded — they must re-run on resume.
func (cp *Checkpoint) Record(r CellResult) error {
	if cp == nil || r.Err != nil || r.Meas == nil || r.Meas.Result == nil {
		return nil
	}
	mr := r.Meas.Result
	rec := checkpointRecord{
		Label:       r.Label(),
		Fingerprint: r.Fingerprint(),
		ExecMS:      r.Meas.ExecMS,
		MemoryKB:    r.Meas.MemoryKB,
		Exit:        mr.Exit,
		Cycles:      mr.Cycles,
		Steps:       mr.Steps,
		MemoryBytes: mr.MemoryBytes,
		ExternBytes: mr.ExternalBytes,
		MemChecksum: mr.MemChecksum,
		GrowOps:     mr.GrowOps,
		GCs:         mr.GCs,
		TierUps:     mr.TierUps,
		BasicCycles: mr.WasmStats.BasicCycles,
		OptCycles:   mr.WasmStats.OptCycles,
		AOTCycles:   mr.WasmStats.AOTCycles,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.done[rec.Label] = rec
	if cp.f != nil {
		if _, err := cp.f.Write(append(line, '\n')); err != nil {
			return fmt.Errorf("harness: checkpoint write: %w", err)
		}
	}
	return nil
}

// Len returns the number of recorded cells.
func (cp *Checkpoint) Len() int {
	if cp == nil {
		return 0
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return len(cp.done)
}

// Close flushes and closes the underlying file.
func (cp *Checkpoint) Close() error {
	if cp == nil || cp.f == nil {
		return nil
	}
	err := cp.f.Close()
	cp.f = nil
	return err
}
