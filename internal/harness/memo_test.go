package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/codegen"
	"wasmbench/internal/compiler"
	"wasmbench/internal/faultinject"
	"wasmbench/internal/ir"
	"wasmbench/internal/obsv"
	"wasmbench/internal/wasmvm"
)

// table2Grid is the Table 2 workload's grid at XS: nine programs × the four
// opt levels × wasm, js and x86, on one desktop Chrome profile. Several of
// its programs compile to byte-identical code at two levels.
func table2Grid(t testing.TB, p *browser.Profile) []Cell {
	t.Helper()
	var cells []Cell
	for _, name := range []string{"gemm", "covariance", "jacobi-2d", "atax", "floyd-warshall",
		"ADPCM", "SHA", "DFMUL", "MIPS"} {
		b, err := benchsuite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, lv := range []ir.OptLevel{ir.O1, ir.O2, ir.Oz, ir.Ofast} {
			for _, lang := range []string{"wasm", "js", "x86"} {
				c := Cell{Bench: b, Size: benchsuite.XS, Level: lv, Lang: lang, Profile: p}
				if lang == "x86" {
					c.Profile = nil
				}
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// repeatedPrograms counts the cells whose measured program equals an
// earlier cell's of the same lang, comparing the compiled programs
// themselves (not their digests). The grid shares one profile and
// toolchain, so these are exactly the cells that may reuse a measurement.
func repeatedPrograms(t *testing.T, cells []Cell) int {
	t.Helper()
	arts := make([]*compiler.Artifact, len(cells))
	n := 0
	for i, c := range cells {
		art, err := CompileCell(c)
		if err != nil {
			t.Fatal(err)
		}
		arts[i] = art
		for j := 0; j < i; j++ {
			if cells[j].Lang != c.Lang {
				continue
			}
			a, b := arts[j], art
			same := false
			switch c.Lang {
			case "js":
				same = a.JS == b.JS
			case "wasm":
				same = string(a.WasmBinary) == string(b.WasmBinary)
			default:
				same = reflect.DeepEqual(a.X86, b.X86)
			}
			if same {
				n++
				break
			}
		}
	}
	return n
}

// TestMeasureReuse: on a grid with byte-identical programs, every cell's
// measurement equals a cold RunCell of that cell field for field, and the
// run reuses exactly one measurement per repeated program, on any worker
// count.
func TestMeasureReuse(t *testing.T) {
	cells := table2Grid(t, browser.Chrome(browser.Desktop))
	want := repeatedPrograms(t, cells)
	if want == 0 {
		t.Fatal("grid has no repeated programs; the test would prove nothing")
	}
	cold := make([]CellResult, len(cells))
	for i, c := range cells {
		cold[i] = RunCell(c)
		if cold[i].Err != nil {
			t.Fatalf("%s: %v", c.Label(), cold[i].Err)
		}
	}
	for _, workers := range []int{2, 4} {
		res, m := RunCellsWith(cells, RunOptions{Workers: workers})
		if m.MeasureReuses != want {
			t.Errorf("workers=%d: MeasureReuses = %d, want %d repeated programs", workers, m.MeasureReuses, want)
		}
		flagged := 0
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("workers=%d %s: %v", workers, r.Label(), r.Err)
			}
			if !reflect.DeepEqual(r.Meas, cold[i].Meas) {
				t.Errorf("workers=%d %s: measurement %+v differs from cold run %+v",
					workers, r.Label(), *r.Meas.Result, *cold[i].Meas.Result)
			}
			if m.Cells[i].MeasureReused {
				flagged++
			}
		}
		if flagged != want {
			t.Errorf("workers=%d: %d cells flagged measure_reused, want %d", workers, flagged, want)
		}
		if !strings.Contains(m.Render(), "\nmeasure reuse: ") {
			t.Errorf("workers=%d: Render has no measure reuse line:\n%s", workers, m.Render())
		}
		// /debug/cells serves the run record as this JSON.
		js, err := json.Marshal(RunState{RunMetrics: *m})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(js), fmt.Sprintf(`"measure_reuses":%d`, want)) ||
			strings.Count(string(js), `"measure_reused":true`) != want {
			t.Errorf("workers=%d: cells JSON does not carry the reuse counts: %s", workers, js)
		}
	}
}

// TestMeasureReuseOffWhenImpure: the same grid reuses nothing under a fault
// plan (even an empty one) or with pooled Wasm instances, and no cell on a
// profile that carries a tracer (the x86 cells run without one and still
// share).
func TestMeasureReuseOffWhenImpure(t *testing.T) {
	traced := browser.Chrome(browser.Desktop)
	traced.SetTracer(&obsv.Collector{Cap: 1024})
	cases := []struct {
		name  string
		cells []Cell
		opt   RunOptions
	}{
		{"faults", table2Grid(t, browser.Chrome(browser.Desktop)), RunOptions{Faults: faultinject.NewPlan(1)}},
		{"tracer", table2Grid(t, traced), RunOptions{}},
		{"vmpool", table2Grid(t, browser.Chrome(browser.Desktop)), RunOptions{SharedVMPools: NewVMPools(nil, nil)}},
	}
	for _, tc := range cases {
		tc.opt.Workers = 2
		res, m := RunCellsWith(tc.cells, tc.opt)
		if err := FirstError(res); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		reuses := 0
		for i, c := range tc.cells {
			if m.Cells[i].MeasureReused && c.Profile != nil {
				reuses++
			}
		}
		if tc.name != "tracer" {
			reuses = m.MeasureReuses
		}
		if reuses != 0 {
			t.Errorf("%s: %d measurements reused, want 0", tc.name, reuses)
		}
	}
}

// TestMeasureReuseKey: a measurement is shared only between cells that
// agree on profile, tier mode and toolchain as well as on the program.
// MIPS compiles to the same program at -O1 and -Oz, so each -Oz cell below
// reuses its -O1 twin and nothing else.
func TestMeasureReuseKey(t *testing.T) {
	b := mustBench(t, "MIPS")
	chrome, firefox := browser.Chrome(browser.Desktop), browser.Firefox(browser.Desktop)
	var cells []Cell
	for _, variant := range []Cell{
		{Lang: "wasm", Profile: chrome},
		{Lang: "wasm", Profile: firefox},
		{Lang: "wasm", Profile: chrome, Mode: wasmvm.TierBasicOnly},
		{Lang: "wasm", Profile: chrome, Toolchain: compiler.Emscripten},
		{Lang: "js", Profile: chrome},
		{Lang: "js", Profile: firefox},
	} {
		for _, lv := range []ir.OptLevel{ir.O1, ir.Oz} {
			c := variant
			c.Bench, c.Size, c.Level = b, benchsuite.XS, lv
			cells = append(cells, c)
		}
	}
	res, m := RunCellsWith(cells, RunOptions{Workers: 1})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Label(), r.Err)
		}
		if want := i%2 == 1; m.Cells[i].MeasureReused != want {
			t.Errorf("%s: measure_reused = %v, want %v", r.Label(), m.Cells[i].MeasureReused, want)
		}
		if !reflect.DeepEqual(r.Meas, RunCell(cells[i]).Meas) {
			t.Errorf("%s: measurement differs from a cold run", r.Label())
		}
	}
}

// TestMeasureReuseIndependentCopies: a reused measurement is its own
// Measurement and Result, down to the output and profile slices, so
// mutating one cell's result leaves its twin as measured.
func TestMeasureReuseIndependentCopies(t *testing.T) {
	p := browser.Chrome(browser.Desktop)
	p.SetProfiling(true)
	b := mustBench(t, "MIPS")
	var cells []Cell
	for _, lv := range []ir.OptLevel{ir.O1, ir.Oz} {
		for _, lang := range []string{"wasm", "js", "x86"} {
			c := Cell{Bench: b, Size: benchsuite.XS, Level: lv, Lang: lang, Profile: p}
			if lang == "x86" {
				c.Profile = nil
			}
			cells = append(cells, c)
		}
	}
	res, m := RunCellsWith(cells, RunOptions{Workers: 1})
	if err := FirstError(res); err != nil {
		t.Fatal(err)
	}
	if m.MeasureReuses == 0 {
		t.Fatal("MIPS -O1 and -Oz measured separately; expected byte-identical programs")
	}
	for i := 3; i < 6; i++ {
		if !m.Cells[i].MeasureReused {
			continue
		}
		twin, copy := res[i-3].Meas, res[i].Meas
		if copy == twin || copy.Result == twin.Result {
			t.Fatalf("%s shares its measurement with %s", res[i].Label(), res[i-3].Label())
		}
		copy.ExecMS++
		copy.Result.Cycles++
		if len(copy.Result.Output) > 0 {
			copy.Result.Output[0].I++
			copy.Result.Output[0].S += "x"
		}
		if len(copy.Result.Profiles) > 0 {
			copy.Result.Profiles[0].Calls++
			if len(copy.Result.Profiles[0].Classes) > 0 {
				copy.Result.Profiles[0].Classes[0].Count++
			}
		} else if cells[i].Lang != "x86" {
			t.Errorf("%s: profiling on but no profiles to compare", res[i].Label())
		}
		if !reflect.DeepEqual(twin, RunCell(cells[i-3]).Meas) {
			t.Errorf("mutating %s changed %s", res[i].Label(), res[i-3].Label())
		}
	}
}

// TestMeasureReuseSkipsFailures: a failed measurement is never shared;
// every duplicate runs, and fails, on its own.
func TestMeasureReuseSkipsFailures(t *testing.T) {
	cells := table2Grid(t, browser.Chrome(browser.Desktop))[:12]
	res, m := RunCellsWith(cells, RunOptions{Workers: 2, StepLimit: 50})
	if m.MeasureReuses != 0 {
		t.Errorf("MeasureReuses = %d under a failing step limit, want 0", m.MeasureReuses)
	}
	if m.Failed != len(cells) {
		t.Errorf("%d of %d cells failed, want all", m.Failed, len(cells))
	}
	for _, r := range res {
		if r.Err == nil || r.Meas != nil {
			t.Errorf("%s: want a step-limit failure, got err=%v", r.Label(), r.Err)
		}
	}
}

// TestMeasureMemoWaitersRunOnFailure: claimants waiting on a measurement
// that fails or panics run their own; a success afterwards is shared.
func TestMeasureMemoWaitersRunOnFailure(t *testing.T) {
	mm := newMeasureMemo(RunOptions{})
	k := measureKey{lang: "js"}
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { _ = recover() }()
		_, _, _ = mm.do(k, func() (*browser.Measurement, error) {
			close(started)
			<-release
			panic("measurement bug")
		})
	}()
	<-started
	var runs, reuses int
	var mu sync.Mutex
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, reused, err := mm.do(k, func() (*browser.Measurement, error) {
				mu.Lock()
				runs++
				mu.Unlock()
				return nil, errors.New("measurement failed")
			})
			if err == nil || m != nil || reused {
				t.Errorf("waiter got m=%v reused=%v err=%v, want its own failure", m, reused, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if runs != 3 {
		t.Errorf("%d waiters measured, want 3", runs)
	}
	ok := &browser.Measurement{ExecMS: 1, Result: &compiler.Result{Cycles: 2}}
	for i := 0; i < 2; i++ {
		m, reused, err := mm.do(k, func() (*browser.Measurement, error) { return ok, nil })
		if err != nil || !reflect.DeepEqual(m, ok) {
			t.Fatalf("claim %d: m=%v err=%v", i, m, err)
		}
		if reused {
			reuses++
		}
	}
	if reuses != 1 {
		t.Errorf("%d of 2 claims after a success were reused, want 1", reuses)
	}
}

// TestX86DigestCoversEveryField: changing any one field of an x86 program,
// its functions or its instructions changes the digest.
func TestX86DigestCoversEveryField(t *testing.T) {
	base := func() *codegen.X86Program {
		return &codegen.X86Program{
			Funcs: []*codegen.X86Func{{Name: "main", NParams: 1, NRegs: 2, Frame: 16, Ret: ir.I32,
				Code: []codegen.X86Instr{{Kind: codegen.XBin, Dst: 1, A: 0, B: 1, Imm: 3,
					Table: []int32{1}, Args: []int32{0}, Host: "print_i"}}}},
			Globals:   []uint64{7},
			Data:      []ir.DataSeg{{Addr: 8, Bytes: []byte{1, 2}}},
			SP:        0,
			StackTop:  1024,
			HeapLimit: 4096,
		}
	}
	d0 := x86Digest(base())
	if x86Digest(base()) != d0 {
		t.Fatal("digest is not deterministic")
	}
	bump := func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint8, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Slice:
			elem := reflect.Zero(v.Type().Elem())
			if v.Type().Elem().Kind() == reflect.Pointer {
				elem = reflect.New(v.Type().Elem().Elem())
			}
			v.Set(reflect.Append(v, elem))
		default:
			t.Fatalf("no mutation for %s", v.Type())
		}
	}
	targets := []struct {
		name string
		at   func(*codegen.X86Program) reflect.Value
	}{
		{"X86Program", func(p *codegen.X86Program) reflect.Value { return reflect.ValueOf(p).Elem() }},
		{"X86Func", func(p *codegen.X86Program) reflect.Value { return reflect.ValueOf(p.Funcs[0]).Elem() }},
		{"X86Instr", func(p *codegen.X86Program) reflect.Value { return reflect.ValueOf(&p.Funcs[0].Code[0]).Elem() }},
		{"DataSeg", func(p *codegen.X86Program) reflect.Value { return reflect.ValueOf(&p.Data[0]).Elem() }},
	}
	for _, tg := range targets {
		n := tg.at(base()).NumField()
		for f := 0; f < n; f++ {
			p := base()
			v := tg.at(p).Field(f)
			bump(v)
			if x86Digest(p) == d0 {
				t.Errorf("%s.%s: changing the field leaves the digest unchanged",
					tg.name, tg.at(p).Type().Field(f).Name)
			}
		}
	}
}
