package jsvm

import "testing"

// funcNamed returns the compiled function called name.
func funcNamed(t *testing.T, vm *VM, name string) *compiledFunc {
	t.Helper()
	for _, cf := range vm.allFuncs {
		if cf.name == name {
			return cf
		}
	}
	t.Fatalf("no function %s", name)
	return nil
}

// recycleConfigs are the engine settings the recycling cases run under:
// tier-up on, the interpreter pinned, the profiler on (whose activations
// take a separate path), and a collection every 2 KB.
var recycleConfigs = []struct {
	name string
	set  func(*Config)
}{
	{"default", func(*Config) {}},
	{"nojit", func(c *Config) { c.JITEnabled = false }},
	{"profile", func(c *Config) { c.Profile = true; c.TierUpThreshold = 3 }},
	{"gc", func(c *Config) { c.GCThreshold = 2048 }},
}

// TestActivationRecycling: a function that creates no closure reuses its
// activation records, and no program can tell. Each case checks __exit
// and, where a case is about a record's fate, how many records the
// function's free list holds after the run. Run's completion value is
// checked last.
func TestActivationRecycling(t *testing.T) {
	cases := []struct {
		name, src string
		exit      int32
		free      map[string]int // function name → free records after the run
	}{
		// A closure that outlives its creator's call keeps the creator's
		// record; a closure-free function called in between reuses its own.
		{"closure-outlives", `
function mk(n) { var c = n; return function () { c = c + 1; return c; }; }
function burn(a, b) { var x = a + b; var y = x * 2; return y; }
var f1 = mk(10);
var f2 = mk(20);
var s = 0;
for (var i = 0; i < 5; i++) { s = s + burn(i, i); }
var __exit = f1() * 1000 + f2() * 10 + f1() + s * 100000;
`, 11*1000 + 21*10 + 12 + 40*100000, map[string]int{"mk": 0, "burn": 1}},
		// Recursion holds one record per level; every level returns its
		// record, and the next descent takes them back.
		{"recursion", `
function fib(n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
function isEven(n) { if (n == 0) return 1; return isOdd(n - 1); }
function isOdd(n) { if (n == 0) return 0; return isEven(n - 1); }
function sumTo(n) { var acc = n; if (n > 0) acc = acc + sumTo(n - 1); return acc; }
var __exit = fib(15) * 1000000 + isEven(21) * 100000 + isOdd(21) * 10000 + sumTo(50);
`, 610*1000000 + 0 + 10000 + 1275, map[string]int{"fib": 15, "isEven": 11, "isOdd": 11, "sumTo": 51}},
		// A recycled record is zeroed: a local reads undefined before its
		// first write on every call.
		{"zeroed", `
function probe(set) { var u; var r = (u === undefined) ? 1 : 0; u = set; return r; }
var a = probe(5);
var b = probe(6);
var __exit = a * 10 + b;
`, 11, map[string]int{"probe": 1}},
		// A throw out of a recycled function, caught by the caller, keeps
		// the failed call's record out of the free list; later calls work.
		{"throw-caught", `
function thrower(x) { var t = x * 2; if (x > 2) throw "big" + t; return t; }
function caller() {
  var s = 0;
  for (var i = 0; i < 5; i++) {
    try { s = s + thrower(i); } catch (e) { s = s + 100; }
  }
  return s + thrower(1);
}
var __exit = caller();
`, 0 + 2 + 4 + 100 + 100 + 2, map[string]int{"thrower": 1, "caller": 1}},
		// A return in flight keeps its value across a finally block whose
		// call returns a value of its own; a return in the finally block
		// replaces it.
		{"finally-return", `
function g() { return 99; }
function h(a) { try { return a; } finally { g(); } }
function k(a) { try { return a; } finally { if (a > 100) return -1; } }
function m() { try { throw 1; } catch (e) { return 3; } finally { g(); } }
var __exit = h(7) * 10000 + k(5) * 100 + (k(500) === -1 ? 10 : 0) + m();
`, 7*10000 + 5*100 + 10 + 3, map[string]int{"g": 1, "h": 1, "k": 1, "m": 1}},
		// An object returned or thrown across a finally block stays alive
		// through the collections the block triggers.
		{"finally-gc", `
function mk(v) { var a = new Int32Array(4); a[0] = v; return a; }
function churn() { for (var i = 0; i < 2000; i++) { var t = [i, i]; } }
function h() { try { return mk(7); } finally { churn(); } }
function th() { try { throw mk(3); } finally { churn(); } }
var o = h();
var c = 0;
try { th(); } catch (e) { c = e[0]; }
var __exit = o[0] * 10 + c;
`, 73, map[string]int{"mk": 1, "churn": 1, "h": 1, "th": 0}},
		// A function that reads arguments gets a fresh arguments object on
		// every call.
		{"arguments", `
function va() { var s = 0; for (var i = 0; i < arguments.length; i++) s = s + arguments[i]; return s; }
var __exit = va(1, 2, 3) * 100 + va(4) * 10 + va();
`, 640, map[string]int{"va": 1}},
		// A bare return answers undefined, not the value of an earlier
		// return; a constructor that returns bare yields its this, not an
		// object some earlier call returned.
		{"bare-return", `
function g() { return 5; }
function f() { g(); return; }
function mkObj() { return { x: 7 }; }
function P(x) { this.x = x; if (x < 0) return; this.y = 1; }
var o = mkObj();
var p = new P(-1);
var __exit = (f() === undefined ? 100 : 0) + (p !== o ? 10 : 0) + (p.x === -1 ? 1 : 0);
`, 111, map[string]int{"g": 1, "f": 1, "P": 1}},
	}
	for _, tc := range cases {
		for _, rc := range recycleConfigs {
			cfg := DefaultConfig()
			rc.set(&cfg)
			vm := New(cfg)
			if _, err := vm.Run(tc.src); err != nil {
				t.Fatalf("%s/%s: %v", tc.name, rc.name, err)
			}
			if got := exitOf(t, vm); got != tc.exit {
				t.Errorf("%s/%s: __exit = %d, want %d", tc.name, rc.name, got, tc.exit)
			}
			for name, want := range tc.free {
				cf := funcNamed(t, vm, name)
				if got := len(cf.free); got != want {
					t.Errorf("%s/%s: %s has %d free records, want %d", tc.name, rc.name, name, got, want)
				}
				for _, e := range cf.free {
					for i, v := range e.slots {
						if v.Kind != KindUndefined {
							t.Errorf("%s/%s: free record of %s holds %v in slot %d", tc.name, rc.name, name, v, i)
						}
					}
				}
			}
		}
	}
	// Run returns the value of the last statement when that is an
	// expression statement, bare or as an unbraced branch of an if or the
	// body of a labeled statement, and undefined after any other
	// statement, whatever the calls inside it return.
	for _, tc := range []struct {
		src  string
		want Value
	}{
		{`function f() { return 5; } f();`, Num(5)},
		{`function f() { return 5; } if (1) { f(); }`, Undefined},
		{`function f() { return 5; } if (1) f();`, Num(5)},
		{`function f() { return 5; } if (0) f();`, Undefined},
		{`function f() { return 5; } if (0) 1; else f();`, Num(5)},
		{`function f() { return 5; } L: f();`, Num(5)},
		{`function f() { return 5; } L: { f(); }`, Undefined},
		{`function f() { return 5; } f(); var x = f();`, Undefined},
		{`function f() { return 5; } for (var i = 0; i < 2; i++) { f(); }`, Undefined},
		{`function f() { return 5; } f(); 7;`, Num(7)},
	} {
		_, got := run(t, tc.src)
		if got.Kind != tc.want.Kind || got.Num != tc.want.Num {
			t.Errorf("%s: Run = %v, want %v", tc.src, got, tc.want)
		}
	}
}

// TestJSCallAllocationFree: calling a warmed function that creates no
// closure, and that calls another such function, allocates nothing.
func TestJSCallAllocationFree(t *testing.T) {
	vm, _ := run(t, `
function sq(x) { return x * x; }
function f(a, b) { var t = sq(a) + sq(b); return t|0; }
`)
	fn, _ := vm.Global("f")
	args := []Value{Num(3), Num(4)}
	call := func() {
		v, err := vm.CallFunction(fn, args)
		if err != nil || v.Num != 25 {
			t.Fatalf("f(3, 4) = %v, %v", v, err)
		}
	}
	call()
	if n := testing.AllocsPerRun(1000, call); n != 0 {
		t.Errorf("CallFunction allocates %v times per call, want 0", n)
	}
}
