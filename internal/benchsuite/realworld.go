package benchsuite

import (
	"fmt"
	"strings"
)

// The §4.6.2 real-world applications, as analogues preserving the
// mechanisms the paper identifies:
//
//   - Long.js: 64-bit integer arithmetic. The Wasm side is C `long`
//     arithmetic (native i64); the JS side splits each 64-bit value into
//     four 16-bit limbs exactly as the Long.js library does to avoid
//     overflow — the instruction blow-up of Appendix D / Table 12.
//   - Hyphenopoly: Liang-style pattern hyphenation over byte buffers. Both
//     sides spend most time scanning text; Wasm is only marginally ahead.
//   - FFmpeg: a frame transcoding pipeline (DCT-like transform + quantize
//     per block). The Wasm implementation shards frames across WebWorkers
//     (the harness runs one VM instance per worker); the JS implementation
//     is serial — the parallelism, not the language, is the 0.275x.

// RealWorldOp names one Table 10 experiment row.
type RealWorldOp struct {
	App   string
	Op    string
	Input string
	// WasmSrc is minic source; JSSrc is hand-written JS.
	WasmSrc string
	JSSrc   string
	// Workers is the WebWorker count for the Wasm side (FFmpeg only: the
	// workers split its frames).
	Workers int
}

// JSProgram returns the experiment's JavaScript side as a subject program,
// named "<App>/<Op>".
func (op *RealWorldOp) JSProgram() *Benchmark {
	return &Benchmark{Name: op.App + "/" + op.Op, JS: op.JSSrc}
}

// WasmPrograms returns the experiment's Wasm side: one program, compiled as
// module App, or with Workers > 1 one per WebWorker, where worker i
// transcodes its share of the frames, [LO, HI) under size class M, as
// module "<app>-w<i>".
func (op *RealWorldOp) WasmPrograms() []*Benchmark {
	name := op.App + "/" + op.Op
	if op.Workers <= 1 {
		return []*Benchmark{{Name: name, Module: op.App, Source: op.WasmSrc}}
	}
	per := (ffFrames + op.Workers - 1) / op.Workers
	var out []*Benchmark
	for w := 0; w < op.Workers; w++ {
		lo, hi := w*per, min((w+1)*per, ffFrames)
		out = append(out, &Benchmark{
			Name:   fmt.Sprintf("%s/w%d", name, w),
			Module: fmt.Sprintf("%s-w%d", strings.ToLower(op.App), w),
			Source: op.WasmSrc,
			Sizes:  map[Size]SizeSpec{M: {Defines: map[string]string{"LO": fmt.Sprint(lo), "HI": fmt.Sprint(hi)}}},
		})
	}
	return out
}

// RealWorld returns the six Table 10 experiments.
func RealWorld() []*RealWorldOp {
	const nOps = 10000
	return []*RealWorldOp{
		{App: "Long.js", Op: "multiplication", Input: "10,000 mul", WasmSrc: longWasm("mul", nOps), JSSrc: longJS("mul", nOps)},
		{App: "Long.js", Op: "division", Input: "10,000 div", WasmSrc: longWasm("div", nOps), JSSrc: longJS("div", nOps)},
		{App: "Long.js", Op: "remainder", Input: "10,000 mod", WasmSrc: longWasm("mod", nOps), JSSrc: longJS("mod", nOps)},
		{App: "Hyphenopoly", Op: "en-us", Input: "18 KB English-like text", WasmSrc: hyphenWasm(1), JSSrc: hyphenJS(1)},
		{App: "Hyphenopoly", Op: "fr", Input: "18 KB French-like text", WasmSrc: hyphenWasm(2), JSSrc: hyphenJS(2)},
		{App: "FFmpeg", Op: "mp4 to avi", Input: "64-frame clip", WasmSrc: ffmpegWasm(), JSSrc: ffmpegJS(), Workers: 4},
	}
}

// longWasm builds the minic (→ i64) side of a Long.js experiment.
func longWasm(op string, n int) string {
	var body string
	switch op {
	case "mul":
		body = "r = r ^ (a * b);"
	case "div":
		body = "if (b != 0) { r = r ^ (a / b); }"
	default:
		body = "if (b != 0) { r = r ^ (a % b); }"
	}
	return fmt.Sprintf(`
int main() {
	long r = 0;
	long a; long b;
	int i;
	for (i = 1; i <= %d; i++) {
		a = (long)i * 2654435761 + 36;
		b = (long)(i %% 97) - 2;
		%s
	}
	print_i(r);
	return (int)(r & 65535);
}
`, n, body)
}

// longJS builds the JavaScript side: the Long.js representation (four
// 16-bit limbs per 64-bit value, long.js's own algorithms).
func longJS(op string, n int) string {
	var call string
	switch op {
	case "mul":
		call = "r = xor64(r, mul64(a, b));"
	case "div":
		call = "if (!isZero(b)) r = xor64(r, divmod64(a, b, false));"
	default:
		call = "if (!isZero(b)) r = xor64(r, divmod64(a, b, true));"
	}
	return longJSLib + fmt.Sprintf(`
var r = make64(0, 0);
for (var i = 1; i <= %d; i++) {
	var a = mul64(fromNumber(i), fromNumber(2654435761));
	a = add64(a, fromNumber(36));
	var b = fromNumber((i %% 97) - 2);
	%s
}
print_i64(r.low, r.high);
var __exit = r.low & 65535;
`, n, call)
}

// longJSLib is the Long.js-style 64-bit library: values are {low, high}
// pairs manipulated through 16-bit limbs (the library's overflow-avoidance
// representation, long.js src/long.js).
const longJSLib = `
function make64(low, high) { return { low: low | 0, high: high | 0 }; }
function fromNumber(v) {
	if (v < 0) { var p = fromNumber(-v); return neg64(p); }
	return make64(v % 4294967296, v / 4294967296);
}
function isZero(a) { return a.low == 0 && a.high == 0; }
function neg64(a) { return add64(not64(a), make64(1, 0)); }
function not64(a) { return make64(~a.low, ~a.high); }
function xor64(a, b) { return make64(a.low ^ b.low, a.high ^ b.high); }
function add64(a, b) {
	var a48 = a.high >>> 16, a32 = a.high & 0xFFFF, a16 = a.low >>> 16, a00 = a.low & 0xFFFF;
	var b48 = b.high >>> 16, b32 = b.high & 0xFFFF, b16 = b.low >>> 16, b00 = b.low & 0xFFFF;
	var c48 = 0, c32 = 0, c16 = 0, c00 = 0;
	c00 += a00 + b00; c16 += c00 >>> 16; c00 &= 0xFFFF;
	c16 += a16 + b16; c32 += c16 >>> 16; c16 &= 0xFFFF;
	c32 += a32 + b32; c48 += c32 >>> 16; c32 &= 0xFFFF;
	c48 += a48 + b48; c48 &= 0xFFFF;
	return make64((c16 << 16) | c00, (c48 << 16) | c32);
}
function sub64(a, b) { return add64(a, neg64(b)); }
function mul64(a, b) {
	var a48 = a.high >>> 16, a32 = a.high & 0xFFFF, a16 = a.low >>> 16, a00 = a.low & 0xFFFF;
	var b48 = b.high >>> 16, b32 = b.high & 0xFFFF, b16 = b.low >>> 16, b00 = b.low & 0xFFFF;
	var c48 = 0, c32 = 0, c16 = 0, c00 = 0;
	c00 += a00 * b00; c16 += c00 >>> 16; c00 &= 0xFFFF;
	c16 += a16 * b00; c32 += c16 >>> 16; c16 &= 0xFFFF;
	c16 += a00 * b16; c32 += c16 >>> 16; c16 &= 0xFFFF;
	c32 += a32 * b00; c48 += c32 >>> 16; c32 &= 0xFFFF;
	c32 += a16 * b16; c48 += c32 >>> 16; c32 &= 0xFFFF;
	c32 += a00 * b32; c48 += c32 >>> 16; c32 &= 0xFFFF;
	c48 += a48 * b00 + a32 * b16 + a16 * b32 + a00 * b48; c48 &= 0xFFFF;
	return make64((c16 << 16) | c00, (c48 << 16) | c32);
}
function lt64(a, b) {
	if (a.high != b.high) return (a.high >>> 0) < (b.high >>> 0);
	return (a.low >>> 0) < (b.low >>> 0);
}
function shl64(a, n) {
	n = n & 63;
	if (n == 0) return a;
	if (n < 32) return make64(a.low << n, (a.high << n) | (a.low >>> (32 - n)));
	return make64(0, a.low << (n - 32));
}
function shr64(a, n) {
	n = n & 63;
	if (n == 0) return a;
	if (n < 32) return make64((a.low >>> n) | (a.high << (32 - n)), a.high >>> n);
	return make64(a.high >>> (n - 32), 0);
}
function isNeg(a) { return a.high < 0; }
function divmod64(a, b, wantRem) {
	var negQ = false, negR = false;
	if (isNeg(a)) { a = neg64(a); negQ = !negQ; negR = true; }
	if (isNeg(b)) { b = neg64(b); negQ = !negQ; }
	var q = make64(0, 0), rem = make64(0, 0);
	for (var i = 63; i >= 0; i--) {
		rem = shl64(rem, 1);
		var bit;
		if (i >= 32) bit = (a.high >>> (i - 32)) & 1;
		else bit = (a.low >>> i) & 1;
		rem = make64(rem.low | bit, rem.high);
		if (!lt64(rem, b)) {
			rem = sub64(rem, b);
			if (i >= 32) q = make64(q.low, q.high | (1 << (i - 32)));
			else q = make64(q.low | (1 << i), q.high);
		}
	}
	if (wantRem) {
		if (negR) return neg64(rem);
		return rem;
	}
	if (negQ) return neg64(q);
	return q;
}
`

// hyphenWasm generates the minic hyphenator: deterministic text generation,
// Liang-style digram/trigram pattern scoring, and hyphen counting.
func hyphenWasm(lang int) string {
	return fmt.Sprintf(`
#define LANG %d
char text[18432];
int scores[18432];

void gen_text() {
	int i;
	unsigned s = (unsigned)(LANG * 2654435761);
	for (i = 0; i < 18432; i++) {
		s = s * 1664525 + 1013904223;
		if (s %% 6 == 0) {
			text[i] = ' ';
		} else {
			text[i] = (char)('a' + (s >> 8) %% 26);
		}
	}
}

int pat_score(int c1, int c2, int c3) {
	/* Deterministic "pattern table": digram/trigram weights. */
	int h = (c1 * 31 + c2) * 31 + c3 + LANG * 7;
	h = h %% 9;
	if (h < 0) h = 0 - h;
	return h;
}

int main() {
	int i;
	int hyphens = 0;
	gen_text();
	for (i = 0; i < 18432; i++) {
		scores[i] = 0;
	}
	for (i = 1; i < 18430; i++) {
		int c1 = text[i - 1];
		int c2 = text[i];
		int c3 = text[i + 1];
		if (c1 != ' ' && c2 != ' ' && c3 != ' ') {
			int sc = pat_score(c1, c2, c3);
			if (sc > scores[i]) {
				scores[i] = sc;
			}
		}
	}
	for (i = 2; i < 18428; i++) {
		if (scores[i] %% 2 == 1 && scores[i] > scores[i - 1] && scores[i] >= scores[i + 1]) {
			if (text[i - 1] != ' ' && text[i + 2] != ' ') {
				hyphens = hyphens + 1;
			}
		}
	}
	print_i((long)hyphens);
	return hyphens & 65535;
}
`, lang)
}

// hyphenJS is the JavaScript hyphenator: same algorithm over a string.
func hyphenJS(lang int) string {
	return fmt.Sprintf(`
var LANG = %d;
var n = 18432;
// Build the input text as a string (Hyphenopoly processes DOM text), then
// work over per-character codes.
var text = "";
(function () {
	var s = (LANG * 2654435761) >>> 0;
	var chunk = [];
	for (var i = 0; i < n; i++) {
		s = (Math.imul(s, 1664525) + 1013904223) >>> 0;
		if (s %% 6 == 0) chunk.push(32);
		else chunk.push(97 + (s >>> 8) %% 26);
	}
	for (var i = 0; i < n; i++) text = text + String.fromCharCode(chunk[i]);
})();
var codes = [];
for (var i = 0; i < n; i++) codes.push(text.charCodeAt(i));
function patScore(c1, c2, c3) {
	var h = (Math.imul(Math.imul(c1, 31) + c2, 31) + c3 + LANG * 7) %% 9;
	if (h < 0) h = -h;
	return h;
}
var scores = new Int32Array(n);
for (var i = 1; i < n - 2; i++) {
	var c1 = codes[i - 1], c2 = codes[i], c3 = codes[i + 1];
	if (c1 != 32 && c2 != 32 && c3 != 32) {
		var sc = patScore(c1, c2, c3);
		if (sc > scores[i]) scores[i] = sc;
	}
}
var hyphens = 0;
var parts = [];
for (var i = 2; i < n - 4; i++) {
	if (scores[i] %% 2 == 1 && scores[i] > scores[i - 1] && scores[i] >= scores[i + 1]) {
		if (codes[i - 1] != 32 && codes[i + 2] != 32) {
			hyphens++;
			parts.push(text.substring(i, i + 1));
		}
	}
}
// Hyphenopoly writes the soft-hyphenated text back to the DOM.
var outText = parts.join("\u00ad");
print_i(hyphens + outText.length * 0);
var __exit = hyphens & 65535;
`, lang)
}

// FFmpeg analogue parameters.
const (
	ffFrames    = 256
	ffBlockDim  = 8
	ffBlocksPer = 48 // blocks per frame
)

// ffmpegWasm transcodes frames [LO, HI): per block, an 8×8 DCT-like
// transform, quantization, and re-encode checksum. The harness runs one
// module instance per worker with disjoint ranges.
func ffmpegWasm() string {
	return fmt.Sprintf(`
double blk[64];
double tmp[64];
double costab[64];

void init_tab() {
	int i; int j;
	for (i = 0; i < 8; i++) {
		for (j = 0; j < 8; j++) {
			costab[i * 8 + j] = cos(3.14159265 * (double)((2 * i + 1) * j) / 16.0);
		}
	}
}

int process_frame(int f) {
	int b; int i; int j; int k;
	int acc = 0;
	for (b = 0; b < %d; b++) {
		for (i = 0; i < 64; i++) {
			blk[i] = (double)((f * 131 + b * 29 + i * 7) %% 256) - 128.0;
		}
		/* Row/column transform with the precomputed coefficient table. */
		for (i = 0; i < 8; i++) {
			for (j = 0; j < 8; j++) {
				double s = 0.0;
				for (k = 0; k < 8; k++) {
					s += blk[i * 8 + k] * costab[k * 8 + j];
				}
				tmp[i * 8 + j] = s / 2.0;
			}
		}
		for (i = 0; i < 8; i++) {
			for (j = 0; j < 8; j++) {
				double s = 0.0;
				for (k = 0; k < 8; k++) {
					s += tmp[k * 8 + j] * costab[k * 8 + i];
				}
				blk[i * 8 + j] = s / 2.0;
			}
		}
		for (i = 0; i < 64; i++) {
			int q = (int)(blk[i] / 8.0);
			acc += q * ((i %% 7) + 1);
		}
	}
	return acc;
}

int main() {
	int f;
	int acc = 0;
	init_tab();
	for (f = LO; f < HI; f++) {
		acc += process_frame(f);
	}
	print_i((long)acc);
	return acc & 65535;
}
`, ffBlocksPer)
}

// ffmpegJS is the serial JavaScript transcoder (node-ffmpeg style: no
// workers).
func ffmpegJS() string {
	return fmt.Sprintf(`
var FRAMES = %d, BLOCKS = %d;
var blk = [], tmp = [];
for (var i = 0; i < 64; i++) { blk.push(0); tmp.push(0); }
function processFrame(f) {
	var acc = 0;
	for (var b = 0; b < BLOCKS; b++) {
		for (var i = 0; i < 64; i++)
			blk[i] = ((f * 131 + b * 29 + i * 7) %% 256) - 128;
		for (var i = 0; i < 8; i++)
			for (var j = 0; j < 8; j++) {
				var s = 0;
				for (var k = 0; k < 8; k++)
					s += blk[i * 8 + k] * Math.cos(3.14159265 * ((2 * k + 1) * j) / 16);
				tmp[i * 8 + j] = s / 2;
			}
		for (var i = 0; i < 8; i++)
			for (var j = 0; j < 8; j++) {
				var s = 0;
				for (var k = 0; k < 8; k++)
					s += tmp[k * 8 + j] * Math.cos(3.14159265 * ((2 * k + 1) * i) / 16);
				blk[i * 8 + j] = s / 2;
			}
		for (var i = 0; i < 64; i++) {
			var q = ~~(blk[i] / 8);
			acc += q * ((i %% 7) + 1);
		}
	}
	return acc;
}
var acc = 0;
for (var f = 0; f < FRAMES; f++) acc += processFrame(f);
print_i(acc);
var __exit = acc & 65535;
`, ffFrames, ffBlocksPer)
}

// FFmpegFrames is the clip length that WasmPrograms splits across workers.
const FFmpegFrames = ffFrames
