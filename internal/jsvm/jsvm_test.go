package jsvm

import (
	"maps"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func run(t *testing.T, src string) (*VM, Value) {
	t.Helper()
	vm := New(DefaultConfig())
	v, err := vm.Run(src)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return vm, v
}

func exitOf(t *testing.T, vm *VM) int32 {
	t.Helper()
	v, ok := vm.Global("__exit")
	if !ok {
		t.Fatal("no __exit global")
	}
	return v.ToInt32()
}

func TestArithmeticAndCoercion(t *testing.T) {
	cases := map[string]float64{
		"1 + 2 * 3":           7,
		"10 / 4":              2.5,
		"7 % 3":               1,
		"(5 | 0) + (2.9 | 0)": 7,
		"1 << 10":             1024,
		"-8 >> 1":             -4,
		"-8 >>> 28":           15,
		"~5":                  -6,
		"0.1 + 0.2":           0.30000000000000004,
		"'3' * 2":             6,
		"1e3 + 1":             1001,
		"0xff & 0x0f":         15,
		"(1 < 2) ? 10 : 20":   10,
		"Math.imul(3, -7)":    -21,
		"Math.floor(3.7)":     3,
		"Math.pow(2, 10)":     1024,
	}
	for src, want := range cases {
		vm := New(DefaultConfig())
		v, err := vm.Run("var __r = " + src + ";")
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		_ = v
		got, _ := vm.Global("__r")
		if got.ToNumber() != want {
			t.Errorf("%s = %v, want %v", src, got.ToNumber(), want)
		}
	}
}

func TestStringSemantics(t *testing.T) {
	vm, _ := run(t, `
var s = "hello" + " " + "world";
var __r1 = s.length;
var __r2 = s.charCodeAt(0);
var __r3 = s.indexOf("world");
var __r4 = s.substring(0, 5);
var __r5 = "1" + 2;
`)
	check := func(name string, want Value) {
		got, _ := vm.Global(name)
		if !StrictEquals(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("__r1", Num(11))
	check("__r2", Num(104))
	check("__r3", Num(6))
	check("__r4", Str("hello"))
	check("__r5", Str("12"))
}

func TestClosuresAndScope(t *testing.T) {
	vm, _ := run(t, `
function counter() {
	var n = 0;
	return function () { n = n + 1; return n; };
}
var c1 = counter();
var c2 = counter();
c1(); c1(); c1();
c2();
var __exit = c1() * 10 + c2();
`)
	if got := exitOf(t, vm); got != 42 {
		t.Errorf("closure state: got %d, want 42", got)
	}
}

func TestObjectsAndMethods(t *testing.T) {
	vm, _ := run(t, `
var obj = {
	count: 0,
	bump: function (d) { this.count = this.count + d; return this.count; }
};
obj.bump(5);
obj.bump(2);
var __exit = obj.count;
`)
	if got := exitOf(t, vm); got != 7 {
		t.Errorf("this binding: got %d", got)
	}
}

func TestArraysGrowAndMethods(t *testing.T) {
	vm, _ := run(t, `
var a = [];
for (var i = 0; i < 10; i++) a.push(i * i);
a[20] = 99;
var __exit = a.length * 1000 + a[3] + a.indexOf(81);
`)
	if got := exitOf(t, vm); got != 21018 {
		t.Errorf("array semantics: got %d", got)
	}
}

func TestTypedArrays(t *testing.T) {
	vm, _ := run(t, `
var buf = new ArrayBuffer(16);
var i32 = new Int32Array(buf);
var u8 = new Uint8Array(buf);
i32[0] = 0x01020304;
var f64 = new Float64Array(2);
f64[1] = 2.5;
var __exit = u8[0] + u8[3] * 100 + f64[1] * 1000;
`)
	// Little-endian: u8[0]=4, u8[3]=1.
	if got := exitOf(t, vm); got != 4+100+2500 {
		t.Errorf("typed arrays: got %d", got)
	}
}

func TestSwitchFallthroughAndLabels(t *testing.T) {
	vm, _ := run(t, `
var r = 0;
switch (2) {
case 1: r += 1;
case 2: r += 2;
case 3: r += 4; break;
case 4: r += 8;
}
outer: for (var i = 0; i < 10; i++) {
	inner: for (var j = 0; j < 10; j++) {
		if (j == 2) continue outer;
		if (i == 5) break outer;
		r += 1;
	}
}
var __exit = r;
`)
	// switch: 2+4=6; loops: i=0..4, j=0..1 → 10 increments.
	if got := exitOf(t, vm); got != 16 {
		t.Errorf("control flow: got %d", got)
	}
}

// TestThisAndArgumentsInsideLabels: a function that uses `arguments` or
// `this` only inside a labeled statement still gets their slots.
func TestThisAndArgumentsInsideLabels(t *testing.T) {
	vm, _ := run(t, `
function f(a) { L: while (1) { return arguments.length; } }
function F() { L: while (1) { this.x = 7; break L; } }
var __exit = f(1, 2) * 10 + new F().x;
`)
	if got := exitOf(t, vm); got != 27 {
		t.Errorf("labeled arguments/this: got %d, want 27", got)
	}
}

func TestTryCatchFinally(t *testing.T) {
	vm, _ := run(t, `
var log = 0;
function risky(n) {
	try {
		if (n > 2) throw n * 10;
		return n;
	} catch (e) {
		return e + 1;
	} finally {
		log = log + 100;
	}
}
var __exit = risky(1) + risky(5) + log;
`)
	if got := exitOf(t, vm); got != 1+51+200 {
		t.Errorf("exceptions: got %d", got)
	}
}

func TestUncaughtThrowSurfacesAsError(t *testing.T) {
	vm := New(DefaultConfig())
	_, err := vm.Run(`throw "boom";`)
	if err == nil {
		t.Fatal("expected error")
	}
	if v, ok := ThrownValue(err); !ok || v.ToString() != "boom" {
		t.Errorf("thrown value: %v (%v)", v, ok)
	}
}

func TestTierUpReducesCost(t *testing.T) {
	src := `
function hot() {
	var s = 0;
	for (var i = 0; i < 50000; i++) s = s + i;
	return s;
}
var __exit = hot() % 1000;
`
	jit := New(DefaultConfig())
	if _, err := jit.Run(src); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.JITEnabled = false
	nojit := New(cfg)
	if _, err := nojit.Run(src); err != nil {
		t.Fatal(err)
	}
	if jit.Cycles() >= nojit.Cycles() {
		t.Errorf("JIT should be faster: %v vs %v", jit.Cycles(), nojit.Cycles())
	}
	if nojit.Cycles()/jit.Cycles() < 5 {
		t.Errorf("JIT speedup too small: %.2fx", nojit.Cycles()/jit.Cycles())
	}
}

func TestGCReclaimsGarbage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GCThreshold = 64 << 10
	vm := New(cfg)
	_, err := vm.Run(`
var keep = [1, 2, 3];
for (var i = 0; i < 5000; i++) {
	var junk = { a: [i, i + 1, i + 2], b: "x" };
	junk.a.push(i);
}
var __exit = keep[2];
`)
	if err != nil {
		t.Fatal(err)
	}
	if vm.GCCount() == 0 {
		t.Fatal("GC never ran")
	}
	// Live heap must be far below total allocation volume (5000 objects).
	if vm.heapLive > 1<<20 {
		t.Errorf("heap did not shrink: %d live bytes", vm.heapLive)
	}
	if got := exitOf(t, vm); got != 3 {
		t.Errorf("live data corrupted by GC: %d", got)
	}
}

func TestGCKeepsReachableThroughClosures(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GCThreshold = 32 << 10
	vm := New(cfg)
	_, err := vm.Run(`
function makeGetter() {
	var data = [42, 43, 44];
	return function () { return data[0]; };
}
var g = makeGetter();
for (var i = 0; i < 3000; i++) {
	var junk = [i, i, i, i];
}
var __exit = g();
`)
	if err != nil {
		t.Fatal(err)
	}
	if vm.GCCount() == 0 {
		t.Fatal("GC never ran")
	}
	if got := exitOf(t, vm); got != 42 {
		t.Errorf("closure-held data collected: %d", got)
	}
}

func TestHeapMetricExcludesBackingStores(t *testing.T) {
	vm, _ := run(t, `
var big = new Float64Array(100000); // 800 KB backing store
big[0] = 1;
var __exit = 0;
`)
	// The JS-heap metric must stay near the engine baseline while the
	// external accounting sees the 800 KB (the paper's flat-JS-memory
	// observation).
	if vm.PeakHeapBytes() > vm.cfg.EngineBaseline+64<<10 {
		t.Errorf("JS heap counts backing store: %d", vm.PeakHeapBytes())
	}
	if vm.PeakExternalBytes() < 800000 {
		t.Errorf("external bytes missing: %d", vm.PeakExternalBytes())
	}
}

func TestPerformanceNowMonotonic(t *testing.T) {
	vm, _ := run(t, `
var t0 = performance.now();
var s = 0;
for (var i = 0; i < 10000; i++) s += i;
var t1 = performance.now();
var __exit = (t1 > t0) ? 1 : 0;
`)
	if got := exitOf(t, vm); got != 1 {
		t.Error("performance.now must advance with virtual time")
	}
}

func TestNumberFormatting(t *testing.T) {
	for f, want := range map[float64]string{
		1:      "1",
		-3.5:   "-3.5",
		0:      "0",
		1e21:   "1e+21",
		123456: "123456",
	} {
		if got := formatNumber(f); got != want {
			t.Errorf("formatNumber(%v) = %q, want %q", f, got, want)
		}
	}
	if formatNumber(math.NaN()) != "NaN" {
		t.Error("NaN formatting")
	}
}

func TestToInt32Properties(t *testing.T) {
	// ToInt32 must agree with the spec's modular arithmetic.
	f := func(x int32) bool {
		return toInt32(float64(x)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if toInt32(math.NaN()) != 0 || toInt32(math.Inf(1)) != 0 {
		t.Error("NaN/Inf must convert to 0")
	}
	if toInt32(4294967296+5) != 5 {
		t.Error("ToInt32 must wrap mod 2^32")
	}
	// Past ±2^63 the int64 conversion is undefined in Go; the spec's
	// modulo still applies (values as node prints them).
	for _, c := range []struct {
		f    float64
		i32  int32
		ui32 uint32
	}{
		{1e20, 1661992960, 1661992960},
		{-1e19, 1981284352, 1981284352},
		{0x1p64 + 8192, 8192, 8192},
		{-0x1p64 - 8192, -8192, 4294959104},
		{0x1p63, 0, 0},
		{-0x1p63, 0, 0},
		{math.Inf(-1), 0, 0},
		{math.MaxFloat64, 0, 0},
	} {
		if got := toInt32(c.f); got != c.i32 {
			t.Errorf("toInt32(%g) = %d, want %d", c.f, got, c.i32)
		}
		if got := toUint32(c.f); got != c.ui32 {
			t.Errorf("toUint32(%g) = %d, want %d", c.f, got, c.ui32)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"var = 3;",
		"function () {}",
		"if (true {",
		"1 +",
		`"unterminated`,
	} {
		vm := New(DefaultConfig())
		if _, err := vm.Run(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestStepLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StepLimit = 1000
	vm := New(cfg)
	_, err := vm.Run(`while (true) {}`)
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("expected step limit, got %v", err)
	}
}

func TestCallDepthLimit(t *testing.T) {
	vm := New(DefaultConfig())
	_, err := vm.Run(`function f(){ return f(); } f();`)
	if err == nil || !strings.Contains(err.Error(), "call stack") {
		t.Fatalf("expected stack overflow, got %v", err)
	}
}

func TestHostCryptoDigest(t *testing.T) {
	vm, _ := run(t, `
var msg = new Uint8Array(64);
for (var i = 0; i < 64; i++) msg[i] = i;
var h = crypto.subtle.digestSHA1(msg);
var __exit = h.length;
`)
	if got := exitOf(t, vm); got != 5 {
		t.Errorf("digest words: %d", got)
	}
}

func TestArithOpCounters(t *testing.T) {
	vm, _ := run(t, `
var s = 0;
for (var i = 0; i < 100; i++) {
	s = s + (i * 2) - (i & 3) + (i << 1);
}
var __exit = s | 0;
`)
	ops := vm.ArithCounts().Map()
	if ops["MUL"] != 100 || ops["AND"] != 100 || ops["SHIFT"] != 100 {
		t.Errorf("op counters: %v", ops)
	}
	if ops["ADD"] < 200 {
		t.Errorf("ADD undercounted: %v", ops)
	}
}

// TestEngineMaxima: operations that would do O(n) work in O(1) steps past
// an engine maximum throw a RangeError (catchable, like V8's) instead.
func TestEngineMaxima(t *testing.T) {
	for _, src := range []string{
		`var a = []; a[2000000] = 1;`,
		`var a = []; a.length = 1e9;`,
		`var b = new Float64Array(1e9);`,
		`var b = new ArrayBuffer(-1);`,
		`var b = new Uint8Array(new ArrayBuffer(4), 0, 100);`,
		`var s = 'ab'; for (;;) s = s + s;`,
		`var s = 'ab'; for (;;) s += s;`,
		`var s = 'x'; for (;;) s = s.concat(s);`,
		`var a = [1]; for (;;) a = a.concat(a);`,
		`var a = [1]; for (var i = 0; i < 40; i++) a = [a, a]; var s = '' + a;`,
	} {
		cfg := DefaultConfig()
		cfg.StepLimit = 1 << 20
		_, err := New(cfg).Run(src)
		v, thrown := ThrownValue(err)
		if !thrown || !strings.HasPrefix(v.ToString(), "RangeError") {
			t.Errorf("%s: want a thrown RangeError, got %v", src, err)
		}
	}
	// The error is a thrown value: try/catch sees it.
	vm, _ := run(t, `var r = 0; try { new Float64Array(-5); } catch (e) { r = 1; } var __exit = r;`)
	if exitOf(t, vm) != 1 {
		t.Error("RangeError not catchable")
	}
	// An array nested in itself converts as "", as in V8.
	vm, _ = run(t, `var a = [1, 2]; a.push(a); var __exit = ('' + a).length;`)
	if got := exitOf(t, vm); got != 4 {
		t.Errorf("cyclic array string length %d, want 4 (\"1,2,\")", got)
	}
}

// TestHostSlotsDeterministic: the host names a program mentions get the
// same global slots on every compile of the same source.
func TestHostSlotsDeterministic(t *testing.T) {
	const src = `var a = new Int8Array(1), b = new Uint8Array(1), c = new Int16Array(1),
  d = new Uint16Array(1), e = new Int32Array(1), f = new Uint32Array(1),
  g = new Float32Array(1), h = new Float64Array(1);
var s = String; console.log(Math.imul(2, 3));`
	first, _ := run(t, src)
	for i := 0; i < 4; i++ {
		vm, _ := run(t, src)
		if !maps.Equal(vm.gprog.slotOf, first.gprog.slotOf) {
			t.Fatalf("compile %d: slots %v, first compile %v", i+2, vm.gprog.slotOf, first.gprog.slotOf)
		}
	}
}
