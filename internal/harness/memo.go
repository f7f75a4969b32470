package harness

// This file extends compile-once to measurement. Every engine is
// deterministic, so within one RunCellsWith call a cell whose program is
// byte-identical to one already measured, on the same profile, tier mode and
// step limit, gets a copy of that measurement instead of running it again.
// Opt levels often compile a kernel to the same program (fast-math has
// nothing to act on in an integer kernel, so -Ofast equals -O2), and
// measuring such a cell again would only repeat the whole VM run.

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sync"

	"wasmbench/internal/browser"
	"wasmbench/internal/codegen"
	"wasmbench/internal/compiler"
	"wasmbench/internal/wasmvm"
)

// measureKey names everything a pure measurement depends on. The engines
// read nothing else from the artifact: RunJS reads the JS text, RunX86 the
// x86 program, and MeasureWasmWith the module (which Encode turns into
// WasmBinary one to one, names included), the binary's length and the
// toolchain (it sets GrowGranularityPages). No measurement reads the
// artifact's ModuleName apart from those bytes.
type measureKey struct {
	lang      string
	program   [sha256.Size]byte
	toolchain compiler.Toolchain // Wasm only; zero for JS and x86
	profile   *browser.Profile
	mode      wasmvm.TierMode
	// stepLimit is RunOptions.StepLimit; with the profile pointer it fixes
	// the effective limit.
	stepLimit uint64
}

// measureMemo is one run's singleflight table of measurements. A failed or
// panicking measurement is never shared: its entry is dropped, every
// waiter runs its own, and a later claimant measures afresh.
type measureMemo struct {
	mu      sync.Mutex
	entries map[measureKey]*memoEntry
}

type memoEntry struct {
	ready chan struct{} // closed once meas is final
	meas  *browser.Measurement
}

// newMeasureMemo returns the run's memo, or nil when a measurement may not
// be a pure function of its key: a fault plan stalls or fails cells one by
// one (wasm.stall, js.heap-oom), and pooled runs report per-run pool flags.
func newMeasureMemo(opt RunOptions) *measureMemo {
	if opt.Faults != nil || opt.VMPool {
		return nil
	}
	return &measureMemo{entries: make(map[measureKey]*memoEntry)}
}

// key returns the cell's measurement key; ok is false when the memo is off
// or the profile carries a tracer or telemetry instruments, whose events and
// counters belong to each run.
func (mm *measureMemo) key(c Cell, art *compiler.Artifact, stepLimit uint64) (k measureKey, ok bool) {
	if mm == nil {
		return k, false
	}
	if p := c.Profile; p != nil && (p.Wasm.Tracer != nil || p.JS.Tracer != nil ||
		p.Wasm.Instruments != nil || p.JS.Instruments != nil) {
		return k, false
	}
	k = measureKey{lang: c.Lang, profile: c.Profile, mode: c.Mode, stepLimit: stepLimit}
	switch c.Lang {
	case "js":
		k.program = sha256.Sum256([]byte(art.JS))
	case "x86":
		if art.X86 == nil {
			return k, false
		}
		k.program = x86Digest(art.X86)
	default:
		k.program = sha256.Sum256(art.WasmBinary)
		k.toolchain = art.Opts.Toolchain
	}
	return k, true
}

// do returns the measurement for k, running measure only when no earlier
// claimant measured k successfully; reused reports a copy of another cell's
// measurement. Concurrent claimants of one key wait for the first.
func (mm *measureMemo) do(k measureKey, measure func() (*browser.Measurement, error)) (m *browser.Measurement, reused bool, err error) {
	mm.mu.Lock()
	if e, ok := mm.entries[k]; ok {
		mm.mu.Unlock()
		<-e.ready
		if e.meas != nil {
			return cloneMeasurement(e.meas), true, nil
		}
		m, err = measure()
		return m, false, err
	}
	e := &memoEntry{ready: make(chan struct{})}
	mm.entries[k] = e
	mm.mu.Unlock()
	// Deferred so a panicking measurement still releases its waiters.
	defer func() {
		if e.meas == nil {
			mm.mu.Lock()
			delete(mm.entries, k)
			mm.mu.Unlock()
		}
		close(e.ready)
	}()
	m, err = measure()
	if err == nil {
		e.meas = cloneMeasurement(m)
	}
	return m, false, err
}

// cloneMeasurement copies a measurement down to the slices its Result
// owns, so no two cells share mutable state.
func cloneMeasurement(m *browser.Measurement) *browser.Measurement {
	c := *m
	if m.Result != nil {
		r := *m.Result
		r.Output = slices.Clone(r.Output)
		r.Profiles = slices.Clone(r.Profiles)
		for i := range r.Profiles {
			r.Profiles[i].Classes = slices.Clone(r.Profiles[i].Classes)
		}
		c.Result = &r
	}
	return &c
}

// x86Digest hashes every field of an x86 program that the x86 VM reads:
// each function's header and code, the initial globals, the data segments,
// and the stack-pointer global, stack top, heap limit and entry point.
func x86Digest(p *codegen.X86Program) [sha256.Size]byte {
	h := sha256.New()
	var b []byte
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	s := func(v string) { u(uint64(len(v))); b = append(b, v...) }
	flag := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	u(uint64(len(p.Funcs)))
	for _, f := range p.Funcs {
		s(f.Name)
		u(uint64(f.NParams))
		u(uint64(f.NRegs))
		u(uint64(f.Frame))
		u(uint64(f.Ret))
		u(uint64(len(f.Code)))
		for i := range f.Code {
			in := &f.Code[i]
			b = append(b, byte(in.Kind), byte(in.T), byte(in.BinOp), byte(in.UnOp), in.Narrow, byte(in.Mem))
			flag(in.Unsigned)
			flag(in.NSigned)
			flag(in.Vec)
			b = binary.LittleEndian.AppendUint32(b, uint32(in.Dst))
			b = binary.LittleEndian.AppendUint32(b, uint32(in.A))
			b = binary.LittleEndian.AppendUint32(b, uint32(in.B))
			b = binary.LittleEndian.AppendUint32(b, uint32(in.Target))
			u(uint64(in.Imm))
			u(uint64(len(in.Table)))
			for _, t := range in.Table {
				b = binary.LittleEndian.AppendUint32(b, uint32(t))
			}
			u(uint64(len(in.Args)))
			for _, a := range in.Args {
				b = binary.LittleEndian.AppendUint32(b, uint32(a))
			}
			s(in.Host)
		}
		h.Write(b)
		b = b[:0]
	}
	u(uint64(len(p.Globals)))
	for _, g := range p.Globals {
		u(g)
	}
	u(uint64(len(p.Data)))
	for _, d := range p.Data {
		u(uint64(d.Addr))
		u(uint64(len(d.Bytes)))
		b = append(b, d.Bytes...)
	}
	u(uint64(p.SP))
	u(uint64(p.StackTop))
	u(uint64(p.HeapLimit))
	u(uint64(p.MainFunc))
	h.Write(b)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
