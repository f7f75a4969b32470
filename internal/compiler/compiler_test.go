package compiler

import (
	"reflect"
	"strings"
	"testing"

	"wasmbench/internal/codegen"
	"wasmbench/internal/ir"
	"wasmbench/internal/jsvm"
	"wasmbench/internal/obsv"
	"wasmbench/internal/telemetry"
	"wasmbench/internal/wasmvm"
)

// gemmSrc is a small matrix-multiply kernel exercising doubles, 2D global
// arrays, nested loops, and the print channel.
const gemmSrc = `
#define N 12
double A[N][N];
double B[N][N];
double C[N][N];

void init() {
	int i; int j;
	for (i = 0; i < N; i++) {
		for (j = 0; j < N; j++) {
			A[i][j] = (double)((i * j + 3) % 7) / 7.0;
			B[i][j] = (double)((i - j + 11) % 5) / 5.0;
			C[i][j] = 0.0;
		}
	}
}

int main() {
	int i; int j; int k;
	double sum = 0.0;
	init();
	for (i = 0; i < N; i++) {
		for (j = 0; j < N; j++) {
			double acc = 0.0;
			for (k = 0; k < N; k++) {
				acc += A[i][k] * B[k][j];
			}
			C[i][j] = acc / 12.0;
		}
	}
	for (i = 0; i < N; i++) {
		sum += C[i][i];
	}
	print_f(sum);
	return (int)(sum * 1000.0);
}
`

// mixedSrc exercises i64 arithmetic, bit manipulation, switch, recursion,
// pointers, malloc, and strings across all backends.
const mixedSrc = `
long mix64(long x) {
	x = x * 6364136223846793005 + 1442695040888963407;
	x = x ^ (x >> 29);
	return x;
}

int fib(int n) {
	if (n < 3) return 1;
	return fib(n - 1) + fib(n - 2);
}

int classify(int v) {
	switch (v % 5) {
	case 0: return 10;
	case 1:
	case 2: return 20;
	case 3: return 30;
	default: return 40;
	}
}

int main() {
	long h = 12345;
	int i;
	int acc = 0;
	int *buf = (int*)malloc(64 * sizeof(int));
	for (i = 0; i < 50; i++) {
		h = mix64(h);
		acc += classify((int)(h & 1023));
	}
	for (i = 0; i < 64; i++) {
		buf[i] = i * i;
	}
	for (i = 0; i < 64; i += 7) {
		acc += buf[i];
	}
	free(buf);
	acc += fib(12);
	print_i(h);
	print_i((long)acc);
	print_s("done");
	return acc;
}
`

var allLevels = []ir.OptLevel{ir.O0, ir.O1, ir.O2, ir.O3, ir.Os, ir.Oz, ir.Ofast}

func compileAt(t *testing.T, src string, level ir.OptLevel) *Artifact {
	t.Helper()
	art, err := Compile(src, Options{Opt: level, ModuleName: "test"})
	if err != nil {
		t.Fatalf("compile %v: %v", level, err)
	}
	return art
}

func runAll(t *testing.T, art *Artifact) (w, j, x *Result) {
	t.Helper()
	w, err := RunWasm(art, wasmvm.DefaultConfig())
	if err != nil {
		t.Fatalf("wasm: %v", err)
	}
	j, err = RunJS(art, jsvm.DefaultConfig())
	if err != nil {
		t.Fatalf("js: %v", err)
	}
	x, err = RunX86(art, codegen.DefaultX86Config())
	if err != nil {
		t.Fatalf("x86: %v", err)
	}
	return w, j, x
}

// TestDifferentialBackends is the core integration test: the same program
// must produce identical outputs and exit codes on Wasm, JS, and x86 at
// every optimization level.
func TestDifferentialBackends(t *testing.T) {
	for _, src := range []struct {
		name string
		code string
	}{{"gemm", gemmSrc}, {"mixed", mixedSrc}} {
		for _, level := range allLevels {
			t.Run(src.name+"/"+level.String(), func(t *testing.T) {
				art := compileAt(t, src.code, level)
				w, j, x := runAll(t, art)
				if w.Exit != x.Exit || j.Exit != x.Exit {
					t.Errorf("exit codes differ: wasm=%d js=%d x86=%d", w.Exit, j.Exit, x.Exit)
				}
				ws, js, xs := w.OutputStrings(), j.OutputStrings(), x.OutputStrings()
				if !reflect.DeepEqual(ws, xs) {
					t.Errorf("wasm output %v != x86 output %v", ws, xs)
				}
				if !reflect.DeepEqual(js, xs) {
					t.Errorf("js output %v != x86 output %v", js, xs)
				}
			})
		}
	}
}

// TestOptimizedOutputsMatchO0 guards the optimizer against miscompilation:
// every level must preserve program behavior.
func TestOptimizedOutputsMatchO0(t *testing.T) {
	base := compileAt(t, mixedSrc, ir.O0)
	ref, err := RunX86(base, codegen.DefaultX86Config())
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range allLevels[1:] {
		art := compileAt(t, mixedSrc, level)
		got, err := RunX86(art, codegen.DefaultX86Config())
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		if got.Exit != ref.Exit || !reflect.DeepEqual(got.OutputStrings(), ref.OutputStrings()) {
			t.Errorf("%v changed behavior: exit %d vs %d, out %v vs %v",
				level, got.Exit, ref.Exit, got.OutputStrings(), ref.OutputStrings())
		}
	}
}

func TestOptimizationReducesWork(t *testing.T) {
	o0 := compileAt(t, gemmSrc, ir.O0)
	o2 := compileAt(t, gemmSrc, ir.O2)
	r0, err := RunX86(o0, codegen.DefaultX86Config())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunX86(o2, codegen.DefaultX86Config())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cycles >= r0.Cycles {
		t.Errorf("-O2 should be faster than -O0 on x86: %v vs %v", r2.Cycles, r0.Cycles)
	}
}

func TestVectorizeIncreasesWasmCodeSize(t *testing.T) {
	// -O2 (vectorize-loops) produces larger code than -Oz (paper Fig. 1/5).
	o2 := compileAt(t, gemmSrc, ir.O2)
	oz := compileAt(t, gemmSrc, ir.Oz)
	if o2.WasmSize() <= oz.WasmSize() {
		t.Errorf("-O2 wasm (%d bytes) should be larger than -Oz (%d bytes)",
			o2.WasmSize(), oz.WasmSize())
	}
}

func TestToolchainFlavours(t *testing.T) {
	ch, err := Compile(gemmSrc, Options{Opt: ir.O2, Toolchain: Cheerp, ModuleName: "ch"})
	if err != nil {
		t.Fatal(err)
	}
	em, err := Compile(gemmSrc, Options{Opt: ir.O2, Toolchain: Emscripten, ModuleName: "em"})
	if err != nil {
		t.Fatal(err)
	}
	// Behavior identical.
	rch, err := RunWasm(ch, wasmvm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfgEm := wasmvm.DefaultConfig()
	cfgEm.GrowGranularityPages = 256
	rem, err := RunWasm(em, cfgEm)
	if err != nil {
		t.Fatal(err)
	}
	if rch.Exit != rem.Exit || !reflect.DeepEqual(rch.OutputStrings(), rem.OutputStrings()) {
		t.Fatalf("toolchains disagree: %v vs %v", rch.OutputStrings(), rem.OutputStrings())
	}
	// Emscripten commits a big initial heap → more memory (§4.2.2).
	if rem.MemoryBytes <= rch.MemoryBytes {
		t.Errorf("emscripten memory (%d) should exceed cheerp (%d)", rem.MemoryBytes, rch.MemoryBytes)
	}
	// Emscripten's peephole runs fewer dynamic instructions.
	if rem.Steps >= rch.Steps {
		t.Errorf("emscripten steps (%d) should be below cheerp (%d)", rem.Steps, rch.Steps)
	}
}

func TestHeapLimitTrap(t *testing.T) {
	src := `
int main() {
	int i;
	for (i = 0; i < 100; i++) {
		char* p = (char*)malloc(1024 * 1024);
		p[0] = 1;
	}
	return 0;
}
`
	// Default Cheerp heap limit is 8 MiB: allocating 100 MiB must trap
	// (the paper's §3.2 runtime error), and raising the limit must fix it.
	art, err := Compile(src, Options{Opt: ir.O1, ModuleName: "oom"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWasm(art, wasmvm.DefaultConfig()); err == nil {
		t.Fatal("expected heap-limit trap with default cheerp-linear-heap-size")
	}
	big, err := Compile(src, Options{Opt: ir.O1, HeapLimit: 256 << 20, ModuleName: "oom2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWasm(big, wasmvm.DefaultConfig()); err != nil {
		t.Fatalf("raised heap limit should succeed: %v", err)
	}
}

func TestOfastKeepsDeadStores(t *testing.T) {
	// The paper's Fig. 7 ADPCM case: a never-read global array store is
	// eliminated at -O2 but survives at -Ofast (the modeled pass bug).
	src := `
int result[256];
int sink;
int main() {
	int i;
	for (i = 0; i < 200; i++) {
		result[i % 256] = i * 3;
		sink = sink + i;
	}
	return sink;
}
`
	o2 := compileAt(t, src, ir.O2)
	ofast := compileAt(t, src, ir.Ofast)
	r2, err := RunWasm(o2, wasmvm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rf, err := RunWasm(ofast, wasmvm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Exit != rf.Exit {
		t.Fatalf("exit codes differ: %d vs %d", r2.Exit, rf.Exit)
	}
	if rf.WasmStats.Counts[wasmvm.CStore] <= r2.WasmStats.Counts[wasmvm.CStore] {
		t.Errorf("-Ofast should keep the dead stores: stores %d (Ofast) vs %d (O2)",
			rf.WasmStats.Counts[wasmvm.CStore], r2.WasmStats.Counts[wasmvm.CStore])
	}
}

func TestTransformedSourceCompiles(t *testing.T) {
	src := `
union bits { double d; long ll; };
union bits u;
int main() {
	int err = 0;
	try {
		u.d = 2.5;
		if (u.ll == 0) throw 1;
	} catch (int e) {
		err = 1;
	}
	return (int)(u.ll >> 60) + err;
}
`
	art, err := Compile(src, Options{Opt: ir.O1, ModuleName: "transform"})
	if err != nil {
		t.Fatal(err)
	}
	if art.Transform.UnionsConverted != 1 || art.Transform.ExceptionsRemoved != 1 {
		t.Errorf("transform report: %+v", art.Transform)
	}
	w, j, x := runAll(t, art)
	if w.Exit != x.Exit || j.Exit != x.Exit {
		t.Errorf("exits differ: %d %d %d", w.Exit, j.Exit, x.Exit)
	}
	// 2.5 = 0x4004000000000000: top nibble 4.
	if x.Exit != 4 {
		t.Errorf("union reinterpret result: %d, want 4", x.Exit)
	}
}

func TestGeneratedJSParses(t *testing.T) {
	art := compileAt(t, gemmSrc, ir.O2)
	if !strings.Contains(art.JS, "HEAPF64") {
		t.Error("generated JS should use the typed-array heap")
	}
	if !strings.Contains(art.JS, "function f_main") {
		t.Error("generated JS should define f_main")
	}
}

func TestWATRendering(t *testing.T) {
	art := compileAt(t, gemmSrc, ir.O2)
	wat := art.WAT()
	for _, want := range []string{"(module", "f64.mul", "(export \"main\""} {
		if !strings.Contains(wat, want) {
			t.Errorf("WAT missing %q", want)
		}
	}
}

// TestPassWorkWithoutTracer: live compiler instruments observe every
// pipeline stage and optimization pass whether or not a tracer is
// attached — one compiler_pass_work_cycles sample per KindCompilePass
// event a tracer-only compile emits.
func TestPassWorkWithoutTracer(t *testing.T) {
	tr := &obsv.Collector{}
	if _, err := Compile(gemmSrc, Options{Opt: ir.O2, ModuleName: "gemm", Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	passes := 0
	for _, e := range tr.Events() {
		if e.Kind == obsv.KindCompilePass {
			passes++
		}
	}
	inst := telemetry.NewCompilerInstruments(telemetry.NewRegistry())
	if _, err := Compile(gemmSrc, Options{Opt: ir.O2, ModuleName: "gemm", Instruments: inst}); err != nil {
		t.Fatal(err)
	}
	if got := inst.PassWork.Count(); got != uint64(passes) || passes <= 5 {
		t.Errorf("pass-work samples = %d, tracer saw %d compile-pass events", got, passes)
	}
}
