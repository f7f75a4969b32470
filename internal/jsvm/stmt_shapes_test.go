package jsvm

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateShapes = flag.Bool("update", false, "regenerate testdata/stmt_shapes.txt")

// stmtShapesFile pins the virtual metrics of shapeSnippets.
const stmtShapesFile = "testdata/stmt_shapes.txt"

// shapeSnippets are the statement shapes Cheerp's inner loops are made of,
// one per operand kind the compiler tells apart: `x = rhs;` with a numeric,
// constant, coerced, copied, mixed (intrinsic, string-capable `+`) or boxed
// rhs, to a local or an outer variable; `obj[idx] = rhs;` into typed
// arrays and into targets that go through setElement; the loop-exit test
// `if (!((a < b)|0)) break L;`; and calls with numeric arguments. A
// numeric rhs that allocates puts a safepoint collection on the error path
// of the step-limit sweep, while an object the activation holds is live.
var shapeSnippets = []struct{ name, src string }{
	{"var-num", `
function f() {
  var l0 = 0;
  var l1 = 0;
  var l2 = 0;
  l0 = 3;
  L1: while (1) {
    if (!((((l0|0) < (40|0))|0))) break L1;
    l1 = ((l1 + l0)|0);
    l2 = (l1 << (1));
    l2 = +(l2) / 4;
    l0 = ((l0 + 1)|0);
  }
  return l2;
}
var __exit = f() | 0;
`},
	{"num-alloc", `
var HEAP32 = new Int32Array(4);
function f() {
  var l0 = 0;
  var l1 = 0;
  var keep = {k: 1};
  for (var i = 0; i < 12; i++) {
    l0 = ([i, i, i, i, i, i, i, i, i, i, i, i, i, i, i, i]).length|0;
    l1 = ((l1 + l0)|0);
  }
  for (var j = 0; j < 12; j++) {
    HEAP32[(j & 3)] = ({a: j, b: [j, j, j, j, j, j, j, j]}).a|0;
  }
  return (l1 + HEAP32[1] + keep.k)|0;
}
var __exit = f();
`},
	{"var-copy", `
function f(p) {
  var l0 = 0;
  var l1 = 0;
  var l2 = true;
  var l3 = 0;
  var u;
  var o = {a: 1};
  var x = 0;
  var s = "s";
  for (var i = 0; i < 30; i++) {
    l0 = i;
    l1 = l0;
    l3 = l2;
    x = o;
    x = s;
    x = p;
    l3 = u;
    l0 = l1;
  }
  return l1 + (x === p ? 100 : 0);
}
var __exit = f(7);
`},
	{"var-conv", `
function f() {
  var l0 = -5;
  var l1 = 0;
  var l2 = 0;
  var l3 = 0;
  var l4 = 2.5;
  for (var i = 0; i < 25; i++) {
    l1 = l0|0;
    l2 = l0>>>0;
    l3 = 7|0;
    l4 = l4|0;
    l0 = ((l0 + 1)|0);
  }
  return ((l1 + l3)|0) + (l2 > 4000000000 ? 1 : 0);
}
var __exit = f();
`},
	{"var-mixed", `
function f() {
  var l0 = 0;
  var l1 = 0;
  var l2 = 0;
  var s = 0;
  var t = "";
  for (var i = 0; i < 20; i++) {
    l0 = i;
    l1 = Math.imul(l0, 3);
    l2 = Math.max(l0, l1);
    s = s + l0;
    t = t + l0;
    l1 = Math.sqrt(l2);
  }
  return (l2 + s + t.length)|0;
}
var __exit = f();
`},
	{"var-boxed", `
function g(n) { return {v: n}; }
function f() {
  var x = 0;
  var y = 0;
  var z = 0;
  var k = 0;
  var o = {p: 3};
  for (var i = 0; i < 20; i++) {
    x = g(i);
    y = {a: i};
    z = [i, i];
    k = o.p;
    x = "k";
    x = typeof y;
  }
  return y.a + z.length + k;
}
var __exit = f();
`},
	{"var-outer", `
var G = 0;
var H = 0;
var __hl = 0;
function f() {
  var l0 = 0;
  var c = 0;
  function inc() { c = ((c + 1)|0); return c; }
  for (var i = 0; i < 20; i++) {
    l0 = i;
    G = ((G + l0)|0);
    H = G;
    __hl = l0|0;
    H = "h";
    inc();
  }
  return (G + c)|0;
}
var __exit = f();
`},
	{"elem-typed", `
var HEAP8 = new Int8Array(64);
var HEAPU8 = new Uint8Array(64);
var HEAP32 = new Int32Array(16);
var HEAPF64 = new Float64Array(8);
function f() {
  var l0 = 0;
  var l1 = 0;
  var t = new Int32Array(4);
  for (var i = 0; i < 12; i++) {
    l0 = i;
    HEAP32[(l0 << 2) >> 2] = ((l0 * 3)|0);
    HEAPU8[5] = 99;
    HEAPF64[(l0 & 7)] = +(l0) / 2;
    HEAP32[l0] = l1|0;
    HEAP8[1000] = 1;
    HEAPU8[(((32 + l0)|0))|0] = ((l0) & 255);
    t[(l0 & 3)] = ((l0 + 1)|0);
    l1 = HEAP32[(l0 << 2) >> 2];
  }
  return ((l1 + t[1] + HEAPU8[5])|0) + HEAPF64[3];
}
var __exit = f() | 0;
`},
	{"elem-plain", `
function f() {
  var arr = [];
  var o = {};
  var n = 5;
  var l0 = 0;
  var k = "key";
  for (var i = 0; i < 15; i++) {
    l0 = i;
    arr[l0] = ((l0 * 2)|0);
    arr[(l0 + 1)|0] = l0|0;
    o[k] = 1;
    o[l0] = +(l0);
    arr["x"] = 5;
    try {
      n[0] = ((l0 + 1)|0);
    } catch (err) {
      n = ((n + 1)|0);
    }
  }
  return ((arr.length + arr[3] + o[k] + o[4] + n)|0);
}
var __exit = f();
`},
	{"elem-nonnum", `
var HEAP32 = new Int32Array(8);
function f() {
  var arr = [0, 0, 0];
  var s = "str";
  var o = {q: 2};
  var l0 = 0;
  for (var i = 0; i < 10; i++) {
    l0 = i;
    arr[(l0 % 3)] = s;
    arr[1] = o;
    HEAP32[(l0 & 7)] = s;
    HEAP32[2] = l0;
    arr[2] = l0;
  }
  return arr[1].q + HEAP32[2] + arr.length;
}
var __exit = f();
`},
	{"exit-test", `
function f() {
  var l0 = 0;
  var l1 = 0;
  var l2 = 10;
  var l3 = 5;
  var s = "b";
  L1: while (1) {
    if (!((((l0|0) < (12|0))|0))) break L1;
    L2: while (1) {
      if (!((((l1>>>0) >= (l2>>>0))|0))) break L2;
      l1 = ((l1 - 1)|0);
    }
    L3: while (1) {
      if (!((((l3>>>0) != (0>>>0))|0))) break L3;
      l3 = ((l3 - 1)|0);
    }
    L4: while (1) {
      if (!(((s < "baaa")|0))) break L4;
      s = s + "a";
    }
    l0 = ((l0 + 1)|0);
    if (!((((l0 & 1) == (0|0))|0))) continue L1;
    l1 = ((l1 + l0)|0);
  }
  return (l1 + s.length)|0;
}
var __exit = f();
`},
	{"call-args", `
var HEAP32 = new Int32Array(8);
function f_rol(l0, l1) {
  l0 = l0|0;
  l1 = l1|0;
  return ((l0 << (l1)) | ((l0 >>> (((32 - l1)|0)))|0));
}
function g(a, b, c, d, e) {
  return typeof a + typeof b + typeof c + typeof d + typeof e + arguments.length;
}
function f() {
  var l0 = 0;
  var l1 = 1;
  var l2 = true;
  var s = "";
  var o = {m: function (a, b) { return (a + b)|0; }};
  for (var i = 0; i < 16; i++) {
    l0 = i;
    HEAP32[(l0 & 7)] = (f_rol(l1, 5)|0);
    l1 = (f_rol(((l1 - 3)|0), 1)|0);
    l1 = (f_rol((HEAP32[(l0 & 7)] ^ l0), 1)|0);
    s = g(l0|0, l2, s.length, Math.imul(l0, 2), "x" + l0);
    l1 = (o.m(l0, 1)|0) + l1;
    l1 = f_rol(-l0, ~l0);
  }
  return (l1 + s.length)|0;
}
var __exit = f();
`},
	{"gc-root", `
function mk(i) { return {a: i, b: [i, i, i]}; }
function f() {
  var x = 0;
  var o = 0;
  var keep = 0;
  var sum = 0;
  for (var i = 0; i < 400; i++) {
    o = {a: i, pad: [i, i, i, i, i, i, i, i]};
    x = o;
    x = mk(i);
    keep = x;
    sum = ((sum + keep.a + o.a)|0);
  }
  return (sum + x.b.length + keep.a)|0;
}
var __exit = f();
`},
}

// shapeConfigs are the engine settings each snippet runs under: tier-up
// on (and OSR mid-loop with a low threshold), and the interpreter pinned.
// A small GC threshold makes the safepoint collections run inside the
// loops.
var shapeConfigs = []struct {
	name string
	set  func(*Config)
}{
	{"default", func(*Config) {}},
	{"osr", func(c *Config) { c.TierUpThreshold = 3 }},
	{"nojit", func(c *Config) { c.JITEnabled = false }},
	{"gc", func(c *Config) { c.GCThreshold = 2048 }},
}

// shapeLine runs src under cfg with the profiler on and renders the run's
// virtual metrics: steps, cycles, GC count, tier-ups, peak heap, the
// value of __exit, the Table 12 operator counts and each function's class
// counts.
func shapeLine(key, src string, cfg Config) (string, uint64, error) {
	cfg.Profile = true
	vm := New(cfg)
	if _, err := vm.Run(src); err != nil {
		return "", 0, err
	}
	exit, _ := vm.Global("__exit")
	var b strings.Builder
	fmt.Fprintf(&b, "%s steps=%d cycles=%s gcs=%d tierups=%d heap=%d exit=%s arith=%v",
		key, vm.Steps(), strconv.FormatFloat(vm.Cycles(), 'g', -1, 64), vm.GCCount(), vm.TierUps(),
		vm.PeakHeapBytes(), dumpValue(exit, 1), vm.ArithCounts().Map())
	for _, fp := range vm.Profile() {
		fmt.Fprintf(&b, " %s:calls=%d", fp.Name, fp.Calls)
		for _, cc := range fp.Classes {
			fmt.Fprintf(&b, ",%s=%d", cc.Class, cc.Count)
		}
	}
	return b.String(), vm.Steps(), nil
}

// sweepDense is how many leading step limits a sweep tries one by one;
// that covers the first passes through each snippet's loop, statement by
// statement. Past it the sweep samples about 100 limits up to the end.
const sweepDense = 400

// stepLimitSweep runs src under the step limits 1..sweepDense and a sample
// of the rest up to steps+1 and digests, for each, the error, the step and
// cycle counts at the trip and every slot of the global scope and of the
// activation records in flight when the limit tripped.
func stepLimitSweep(src string, cfg Config, steps uint64) string {
	h := fnv.New64a()
	stride := max(1, (steps+1)/100)
	for limit := uint64(1); limit <= steps+1; {
		c := cfg
		c.StepLimit = limit
		vm := New(c)
		_, err := vm.Run(src)
		fmt.Fprintf(h, "%d %v %d %s|", limit, err, vm.Steps(),
			strconv.FormatFloat(vm.Cycles(), 'g', -1, 64))
		if vm.global != nil {
			// By name: the host names' slots are numbered in map order.
			names := make([]string, 0, len(vm.gprog.slotOf))
			for name := range vm.gprog.slotOf {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Fprintf(h, "%s=%s,", name, dumpValue(vm.global.slots[vm.gprog.slotOf[name]], 1))
			}
		}
		for _, e := range vm.tripEnvs {
			if e == vm.global {
				continue
			}
			for _, v := range e.slots {
				fmt.Fprintf(h, "%s,", dumpValue(v, 1))
			}
			h.Write([]byte{';'})
		}
		if limit < sweepDense {
			limit++
		} else {
			limit += stride
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// dumpValue renders a value, and objects depth levels deep: array
// elements, sorted properties, a typed array's bytes.
func dumpValue(v Value, depth int) string {
	switch v.Kind {
	case KindUndefined:
		return "u"
	case KindNull:
		return "null"
	case KindBool:
		return "b" + strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindNumber:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.Str)
	}
	o := v.Obj
	switch {
	case o.Kind == ObjFunction:
		return "fn:" + o.Fn.Name
	case depth == 0:
		return fmt.Sprintf("obj%d", o.Kind)
	case o.Kind == ObjTypedArray:
		n := o.TA.Len
		var parts []string
		for i := 0; i < n; i++ {
			parts = append(parts, strconv.FormatFloat(o.TAGet(i), 'g', -1, 64))
		}
		return "ta[" + strings.Join(parts, " ") + "]"
	}
	var parts []string
	for _, e := range o.Elems {
		parts = append(parts, dumpValue(e, depth-1))
	}
	keys := make([]string, 0, len(o.Props))
	for k := range o.Props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts = append(parts, k+":"+dumpValue(o.Props[k], depth-1))
	}
	return fmt.Sprintf("obj%d{%s}", o.Kind, strings.Join(parts, " "))
}

// TestStmtShapes pins each shape snippet's virtual metrics under every
// shape config, and a step-limit sweep across the whole run (the limit
// trips on the same step, with the same slot state, at every limit), in
// testdata/stmt_shapes.txt. Regenerate with -update only for an
// intentional model change.
func TestStmtShapes(t *testing.T) {
	var lines []string
	for _, s := range shapeSnippets {
		for _, sc := range shapeConfigs {
			cfg := DefaultConfig()
			sc.set(&cfg)
			key := s.name + "/" + sc.name
			line, steps, err := shapeLine(key, s.src, cfg)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if sc.name == "default" || sc.name == "gc" {
				line += " sweep=" + stepLimitSweep(s.src, cfg, steps)
			}
			lines = append(lines, line)
		}
	}
	path := filepath.FromSlash(stmtShapesFile)
	if *updateShapes {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestStmtShapes -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s has %d lines, recomputed %d", path, len(want), len(lines))
	}
	for i := range lines {
		if want[i] != lines[i] {
			t.Errorf("line %d changed:\n  want %s\n  got  %s", i, want[i], lines[i])
		}
	}
}

// TestStmtShapesGCKeepsAssignedObject: an object stored by `x = o;` and
// `x = mk(i);` survives the safepoint collections that run after those
// statements, and the collections do run.
func TestStmtShapesGCKeepsAssignedObject(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GCThreshold = 2048
	vm := New(cfg)
	var src string
	for _, s := range shapeSnippets {
		if s.name == "gc-root" {
			src = s.src
		}
	}
	if _, err := vm.Run(src); err != nil {
		t.Fatal(err)
	}
	if vm.GCCount() == 0 {
		t.Fatal("GC never ran")
	}
	// sum of 2i over 400 iterations, plus b.length 3 and keep.a 399.
	if got, want := exitOf(t, vm), int32(399*400+3+399); got != want {
		t.Errorf("__exit = %d, want %d", got, want)
	}
}
