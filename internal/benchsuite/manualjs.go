package benchsuite

import "fmt"

// The §4.6.1 subject programs: 9 benchmarks manually reimplemented in
// idiomatic JavaScript (regular arrays, objects, library helpers) — the
// way a web developer would write them, in contrast to the compiler's
// typed-array output. Where the paper used popular libraries, the same
// strata appear here: a math.js-style matrix library (mathlibJS), a pure-JS
// SHA implementation (the jsSHA stratum), and the W3C Web Cryptography API
// modeled as a native host digest.

// ManualJS is one manually-written JavaScript benchmark.
type ManualJS struct {
	Name string
	// Counterpart is the compiled benchmark it is compared against
	// (Table 9 rows).
	Counterpart string
	Source      string
}

// Program returns the manual implementation as a subject program, named
// "manual/<Name>".
func (m *ManualJS) Program() *Benchmark {
	return &Benchmark{Name: "manual/" + m.Name, JS: m.Source}
}

// mathlibJS is the idiomatic matrix library (the math.js stratum): nested
// regular arrays, closures, bounds-flexible helpers.
const mathlibJS = `
var mathlib = {
	zeros: function (r, c) {
		var m = [];
		for (var i = 0; i < r; i++) {
			var row = [];
			for (var j = 0; j < c; j++) row.push(0);
			m.push(row);
		}
		return m;
	},
	matrix: function (r, c, f) {
		var m = [];
		for (var i = 0; i < r; i++) {
			var row = [];
			for (var j = 0; j < c; j++) row.push(f(i, j));
			m.push(row);
		}
		return m;
	},
	// Generic element accessors with validation, math.js-style: every
	// element access goes through a library call.
	get: function (m, i, j) {
		if (i < 0 || i >= m.length) throw "index";
		var row = m[i];
		if (j < 0 || j >= row.length) throw "index";
		return row[j];
	},
	set: function (m, i, j, v) {
		if (i < 0 || i >= m.length) throw "index";
		m[i][j] = v;
	},
	multiply: function (a, b) {
		var n = a.length, p = b[0].length, q = b.length;
		var out = mathlib.zeros(n, p);
		for (var i = 0; i < n; i++) {
			for (var j = 0; j < p; j++) {
				var acc = 0;
				for (var k = 0; k < q; k++) acc += mathlib.get(a, i, k) * mathlib.get(b, k, j);
				mathlib.set(out, i, j, acc);
			}
		}
		return out;
	},
	transpose: function (a) {
		var n = a.length, m = a[0].length;
		var out = mathlib.zeros(m, n);
		for (var i = 0; i < n; i++)
			for (var j = 0; j < m; j++) out[j][i] = a[i][j];
		return out;
	}
};
`

// ManualBenchmarks returns the 9 manually-written JS programs (11 Table 9
// rows: heat-3d and SHA each have two implementation strata).
func ManualBenchmarks() []*ManualJS {
	n := 26 // matches the compiled benchmarks' medium NC
	return []*ManualJS{
		{Name: "3mm", Counterpart: "3mm", Source: manual3mm(n)},
		{Name: "Covariance", Counterpart: "covariance", Source: manualCovariance(n)},
		{Name: "Syr2k", Counterpart: "syr2k", Source: manualSyr2k(n)},
		{Name: "Ludcmp", Counterpart: "ludcmp", Source: manualLudcmp(n)},
		{Name: "Floyd-warshall", Counterpart: "floyd-warshall", Source: manualFloyd(n)},
		{Name: "Heat-3d (plain)", Counterpart: "heat-3d", Source: manualHeat3dPlain(14, 8)},
		{Name: "Heat-3d (math.js)", Counterpart: "heat-3d", Source: manualHeat3dMathjs(14, 8)},
		{Name: "AES", Counterpart: "AES", Source: manualAES(20)},
		{Name: "BLOWFISH", Counterpart: "BLOWFISH", Source: manualBlowfish(10)},
		{Name: "SHA (W3C)", Counterpart: "SHA", Source: manualSHAW3C(10)},
		{Name: "SHA (jsSHA)", Counterpart: "SHA", Source: manualSHAJsSHA(10)},
	}
}

func manual3mm(n int) string {
	return mathlibJS + fmt.Sprintf(`
var N = %d;
var A = mathlib.matrix(N, N, function (i, j) { return ((i * j + 1) %% 5) / 5; });
var B = mathlib.matrix(N, N, function (i, j) { return ((i * (j + 1) + 2) %% 7) / 7; });
var C = mathlib.matrix(N, N, function (i, j) { return (i * (j + 3) %% 11) / 11; });
var D = mathlib.matrix(N, N, function (i, j) { return ((i * (j + 2) + 2) %% 13) / 13; });
var E = mathlib.multiply(A, B);
var F = mathlib.multiply(C, D);
var G = mathlib.multiply(E, F);
var s = 0;
for (var i = 0; i < N; i++)
	for (var j = 0; j < N; j++) s += G[i][j] * ((i + 2 * j) %% 7 + 1);
print_f(s);
var __exit = Math.floor(s * 100) %% 100000;
`, n)
}

func manualCovariance(n int) string {
	return mathlibJS + fmt.Sprintf(`
var N = %d;
var data = mathlib.matrix(N, N, function (i, j) { return ((i * j) %% 13) / 13; });
var mean = [];
for (var j = 0; j < N; j++) {
	var m = 0;
	for (var i = 0; i < N; i++) m += data[i][j];
	mean.push(m / N);
}
for (var i = 0; i < N; i++)
	for (var j = 0; j < N; j++) data[i][j] -= mean[j];
var cov = mathlib.zeros(N, N);
for (var i = 0; i < N; i++) {
	for (var j = i; j < N; j++) {
		var acc = 0;
		for (var k = 0; k < N; k++) acc += data[k][i] * data[k][j];
		acc = acc / (N - 1);
		cov[i][j] = acc;
		cov[j][i] = acc;
	}
}
var s = 0;
for (var i = 0; i < N; i++)
	for (var j = 0; j < N; j++) s += cov[i][j] * ((i + 2 * j) %% 7 + 1);
print_f(s);
var __exit = Math.floor(s * 100) %% 100000;
`, n)
}

func manualSyr2k(n int) string {
	return mathlibJS + fmt.Sprintf(`
var N = %d;
var alpha = 1.5, beta = 1.2;
var A = mathlib.matrix(N, N, function (i, j) { return ((i * j) %% 8) / 8; });
var B = mathlib.matrix(N, N, function (i, j) { return ((i * j + 1) %% 9) / 9; });
var C = mathlib.matrix(N, N, function (i, j) { return ((i + j) %% 10) / 10; });
for (var i = 0; i < N; i++) {
	for (var j = 0; j <= i; j++) C[i][j] *= beta;
	for (var k = 0; k < N; k++)
		for (var j = 0; j <= i; j++)
			C[i][j] += A[j][k] * alpha * B[i][k] + B[j][k] * alpha * A[i][k];
}
var s = 0;
for (var i = 0; i < N; i++)
	for (var j = 0; j < N; j++) s += C[i][j] * ((i + 2 * j) %% 7 + 1);
print_f(s);
var __exit = Math.floor(s * 100) %% 100000;
`, n)
}

func manualLudcmp(n int) string {
	return mathlibJS + fmt.Sprintf(`
var N = %d;
var A = mathlib.zeros(N, N);
for (var i = 0; i < N; i++) {
	for (var j = 0; j <= i; j++) A[i][j] = -(j %% N) / N + 1;
	A[i][i] = 1;
}
var Bm = mathlib.multiply(A, mathlib.transpose(A));
A = Bm;
var b = [], x = [], y = [];
for (var i = 0; i < N; i++) {
	b.push((i + 1) / N / 2 + 4);
	x.push(0);
	y.push(0);
}
for (var i = 0; i < N; i++) {
	for (var j = 0; j < i; j++) {
		var w = A[i][j];
		for (var k = 0; k < j; k++) w -= A[i][k] * A[k][j];
		A[i][j] = w / A[j][j];
	}
	for (var j = i; j < N; j++) {
		var w = A[i][j];
		for (var k = 0; k < i; k++) w -= A[i][k] * A[k][j];
		A[i][j] = w;
	}
}
for (var i = 0; i < N; i++) {
	var w = b[i];
	for (var j = 0; j < i; j++) w -= A[i][j] * y[j];
	y[i] = w;
}
for (var i = N - 1; i >= 0; i--) {
	var w = y[i];
	for (var j = i + 1; j < N; j++) w -= A[i][j] * x[j];
	x[i] = w / A[i][i];
}
var s = 0;
for (var i = 0; i < N; i++) s += x[i] * (i %% 5 + 1);
print_f(s);
var __exit = Math.floor(s * 100) %% 100000;
`, n)
}

func manualFloyd(n int) string {
	return fmt.Sprintf(`
var N = %d;
var path = [];
for (var i = 0; i < N; i++) {
	var row = [];
	for (var j = 0; j < N; j++) {
		var v = (i * j) %% 7 + 1;
		if ((i + j) %% 13 == 0 || (i + j) %% 7 == 0 || (i + j) %% 11 == 0) v = 999;
		row.push(v);
	}
	path.push(row);
}
for (var k = 0; k < N; k++)
	for (var i = 0; i < N; i++)
		for (var j = 0; j < N; j++)
			if (path[i][j] > path[i][k] + path[k][j]) path[i][j] = path[i][k] + path[k][j];
var s = 0;
for (var i = 0; i < N; i++)
	for (var j = 0; j < N; j++) s += path[i][j] * ((i + j) %% 3 + 1);
print_i(s);
var __exit = s %% 100000;
`, n)
}

func manualHeat3dPlain(n, ts int) string {
	return fmt.Sprintf(`
var N = %d, TS = %d;
function cube(f) {
	var a = [];
	for (var i = 0; i < N; i++) {
		var p = [];
		for (var j = 0; j < N; j++) {
			var r = [];
			for (var k = 0; k < N; k++) r.push(f(i, j, k));
			p.push(r);
		}
		a.push(p);
	}
	return a;
}
var A = cube(function (i, j, k) { return (i + j + (N - k)) * 10 / N; });
var B = cube(function (i, j, k) { return (i + j + (N - k)) * 10 / N; });
for (var t = 1; t <= TS; t++) {
	for (var i = 1; i < N - 1; i++)
		for (var j = 1; j < N - 1; j++)
			for (var k = 1; k < N - 1; k++)
				B[i][j][k] = 0.125 * (A[i + 1][j][k] - 2 * A[i][j][k] + A[i - 1][j][k])
					+ 0.125 * (A[i][j + 1][k] - 2 * A[i][j][k] + A[i][j - 1][k])
					+ 0.125 * (A[i][j][k + 1] - 2 * A[i][j][k] + A[i][j][k - 1])
					+ A[i][j][k];
	for (var i = 1; i < N - 1; i++)
		for (var j = 1; j < N - 1; j++)
			for (var k = 1; k < N - 1; k++)
				A[i][j][k] = 0.125 * (B[i + 1][j][k] - 2 * B[i][j][k] + B[i - 1][j][k])
					+ 0.125 * (B[i][j + 1][k] - 2 * B[i][j][k] + B[i][j - 1][k])
					+ 0.125 * (B[i][j][k + 1] - 2 * B[i][j][k] + B[i][j][k - 1])
					+ B[i][j][k];
}
var s = 0;
for (var i = 0; i < N; i++)
	for (var j = 0; j < N; j++) s += A[i][j][(i + j) %% N];
print_f(s);
var __exit = Math.floor(s * 100) %% 100000;
`, n, ts)
}

func manualHeat3dMathjs(n, ts int) string {
	// The math.js stratum: plane-by-plane updates through library matrices
	// (extra allocation and indirection per step).
	return mathlibJS + fmt.Sprintf(`
var N = %d, TS = %d;
function cube() {
	var planes = [];
	for (var i = 0; i < N; i++) planes.push(mathlib.zeros(N, N));
	return planes;
}
var A = cube(), B = cube();
for (var i = 0; i < N; i++)
	for (var j = 0; j < N; j++)
		for (var k = 0; k < N; k++) {
			A[i][j][k] = (i + j + (N - k)) * 10 / N;
			B[i][j][k] = A[i][j][k];
		}
function step(src, dst) {
	for (var i = 1; i < N - 1; i++) {
		var up = src[i + 1], here = src[i], down = src[i - 1];
		var out = dst[i];
		for (var j = 1; j < N - 1; j++)
			for (var k = 1; k < N - 1; k++)
				out[j][k] = 0.125 * (up[j][k] - 2 * here[j][k] + down[j][k])
					+ 0.125 * (here[j + 1][k] - 2 * here[j][k] + here[j - 1][k])
					+ 0.125 * (here[j][k + 1] - 2 * here[j][k] + here[j][k - 1])
					+ here[j][k];
	}
}
for (var t = 1; t <= TS; t++) {
	step(A, B);
	step(B, A);
}
var s = 0;
for (var i = 0; i < N; i++)
	for (var j = 0; j < N; j++) s += A[i][j][(i + j) %% N];
print_f(s);
var __exit = Math.floor(s * 100) %% 100000;
`, n, ts)
}

func manualAES(reps int) string {
	// Hand bit-twiddled JS AES (the careful-implementation stratum the
	// paper found can beat compiled code): table-driven rounds over typed
	// arrays.
	return fmt.Sprintf(`
var REPS = %d;
var sbox = new Uint8Array(256);
function xtime(x) { x = x << 1; if (x & 256) x = (x ^ 27) & 255; return x & 255; }
function gmul(a, b) {
	var p = 0;
	for (var i = 0; i < 8; i++) {
		if (b & 1) p = p ^ a;
		a = xtime(a);
		b = b >> 1;
	}
	return p & 255;
}
(function () {
	sbox[0] = 99;
	for (var i = 1; i < 256; i++) {
		var inv = 0;
		for (var j = 1; j < 256; j++) if (gmul(i, j) == 1) { inv = j; break; }
		var s = inv ^ ((inv << 1) | (inv >> 7)) ^ ((inv << 2) | (inv >> 6)) ^ ((inv << 3) | (inv >> 5)) ^ ((inv << 4) | (inv >> 4));
		sbox[i] = (s & 255) ^ 99;
	}
})();
var rk = new Uint8Array(176);
function expand(key) {
	for (var i = 0; i < 16; i++) rk[i] = key[i];
	var rcon = 1;
	for (var i = 4; i < 44; i++) {
		var k = (i - 1) * 4;
		var t0 = rk[k], t1 = rk[k + 1], t2 = rk[k + 2], t3 = rk[k + 3];
		if (i %% 4 == 0) {
			var tmp = t0;
			t0 = sbox[t1] ^ rcon; t1 = sbox[t2]; t2 = sbox[t3]; t3 = sbox[tmp];
			rcon = xtime(rcon);
		}
		k = (i - 4) * 4;
		rk[i * 4] = rk[k] ^ t0; rk[i * 4 + 1] = rk[k + 1] ^ t1;
		rk[i * 4 + 2] = rk[k + 2] ^ t2; rk[i * 4 + 3] = rk[k + 3] ^ t3;
	}
}
var st = new Uint8Array(16);
function addkey(r) { for (var i = 0; i < 16; i++) st[i] = st[i] ^ rk[r * 16 + i]; }
function subbytes() { for (var i = 0; i < 16; i++) st[i] = sbox[st[i]]; }
function shiftrows() {
	var t = st[1]; st[1] = st[5]; st[5] = st[9]; st[9] = st[13]; st[13] = t;
	t = st[2]; st[2] = st[10]; st[10] = t; t = st[6]; st[6] = st[14]; st[14] = t;
	t = st[15]; st[15] = st[11]; st[11] = st[7]; st[7] = st[3]; st[3] = t;
}
function mixcols() {
	for (var c = 0; c < 4; c++) {
		var a0 = st[c * 4], a1 = st[c * 4 + 1], a2 = st[c * 4 + 2], a3 = st[c * 4 + 3];
		st[c * 4] = gmul(a0, 2) ^ gmul(a1, 3) ^ a2 ^ a3;
		st[c * 4 + 1] = a0 ^ gmul(a1, 2) ^ gmul(a2, 3) ^ a3;
		st[c * 4 + 2] = a0 ^ a1 ^ gmul(a2, 2) ^ gmul(a3, 3);
		st[c * 4 + 3] = gmul(a0, 3) ^ a1 ^ a2 ^ gmul(a3, 2);
	}
}
var key = new Uint8Array(16);
for (var i = 0; i < 16; i++) key[i] = (i * 17 + 5) & 255;
expand(key);
var acc = 0;
for (var r = 0; r < REPS; r++) {
	for (var i = 0; i < 16; i++) st[i] = (r * 31 + i * 7) & 255;
	addkey(0);
	for (var rd = 1; rd < 10; rd++) { subbytes(); shiftrows(); mixcols(); addkey(rd); }
	subbytes(); shiftrows(); addkey(10);
	for (var i = 0; i < 16; i++) acc = (acc + st[i] * (i + 1)) & 16777215;
}
print_i(acc);
var __exit = acc & 65535;
`, reps)
}

func manualBlowfish(reps int) string {
	// Idiomatic JS port of the Feistel cipher: plain arrays and closures
	// (noticeably slower than both the compiled JS and the Wasm, Table 9).
	return fmt.Sprintf(`
var REPS = %d;
var P = [], S = [[], [], [], []];
var seed = 2654435769;
function nextRand() {
	seed = (Math.imul(seed, 1664525) + 1013904223) | 0;
	return seed >>> 0;
}
var xl = 0, xr = 0;
function F(x) {
	var h = (S[0][(x >>> 24) & 255] + S[1][(x >>> 16) & 255]) >>> 0;
	return (((h ^ S[2][(x >>> 8) & 255]) >>> 0) + S[3][x & 255]) >>> 0;
}
function encrypt() {
	for (var i = 0; i < 16; i++) {
		xl = (xl ^ P[i]) >>> 0;
		xr = (F(xl) ^ xr) >>> 0;
		var t = xl; xl = xr; xr = t;
	}
	var t = xl; xl = xr; xr = t;
	xr = (xr ^ P[16]) >>> 0;
	xl = (xl ^ P[17]) >>> 0;
}
function init(key) {
	seed = 2654435769;
	for (var i = 0; i < 18; i++) P.push(nextRand());
	for (var b = 0; b < 4; b++)
		for (var i = 0; i < 256; i++) S[b].push(nextRand());
	var j = 0;
	for (var i = 0; i < 18; i++) {
		var data = 0;
		for (var k = 0; k < 4; k++) {
			data = ((data << 8) | key[j]) >>> 0;
			j = (j + 1) %% key.length;
		}
		P[i] = (P[i] ^ data) >>> 0;
	}
	xl = 0; xr = 0;
	for (var i = 0; i < 18; i += 2) { encrypt(); P[i] = xl; P[i + 1] = xr; }
	for (var b = 0; b < 4; b++)
		for (var i = 0; i < 256; i += 2) { encrypt(); S[b][i] = xl; S[b][i + 1] = xr; }
}
var key = [];
for (var i = 0; i < 8; i++) key.push((i * 29 + 3) & 255);
init(key);
var acc = 0;
for (var r = 0; r < REPS; r++) {
	for (var b = 0; b < 16; b++) {
		xl = (r * 73 + b * 129 + 7) >>> 0;
		xr = (r * 41 + b * 57 + 11) >>> 0;
		encrypt();
		acc = (acc ^ xl ^ (xr >>> 3)) | 0;
	}
}
print_i(acc);
var __exit = acc & 65535;
`, reps)
}

func manualSHAW3C(reps int) string {
	// The W3C Web Cryptography stratum: the digest runs in native browser
	// code (crypto.subtle modeled synchronously), so JS does almost nothing.
	return fmt.Sprintf(`
var REPS = %d;
var acc = 0;
for (var r = 0; r < REPS; r++) {
	var msg = new Uint8Array(8192);
	for (var i = 0; i < 8192; i++) msg[i] = (i * 7 + r * 13 + 1) & 255;
	var h = crypto.subtle.digestSHA1(msg);
	acc = (acc ^ h[0] ^ h[2] ^ h[4]) | 0;
}
print_i(acc);
var __exit = acc & 65535;
`, reps)
}

func manualSHAJsSHA(reps int) string {
	// The pure-JS library stratum (jsSHA): full SHA-1 in JavaScript.
	return fmt.Sprintf(`
var REPS = %d;
function rol(x, n) { return ((x << n) | (x >>> (32 - n))) | 0; }
function sha1(msg) {
	var h0 = 1732584193 | 0, h1 = 4023233417 | 0, h2 = 2562383102 | 0, h3 = 271733878 | 0, h4 = 3285377520 | 0;
	var W = new Int32Array(80);
	for (var off = 0; off + 64 <= msg.length; off += 64) {
		for (var t = 0; t < 16; t++)
			W[t] = (msg[off + t * 4] << 24) | (msg[off + t * 4 + 1] << 16) | (msg[off + t * 4 + 2] << 8) | msg[off + t * 4 + 3];
		for (var t = 16; t < 80; t++) W[t] = rol(W[t - 3] ^ W[t - 8] ^ W[t - 14] ^ W[t - 16], 1);
		var a = h0, b = h1, c = h2, d = h3, e = h4;
		for (var t = 0; t < 80; t++) {
			var f, k;
			if (t < 20) { f = (b & c) | ((~b) & d); k = 1518500249; }
			else if (t < 40) { f = b ^ c ^ d; k = 1859775393; }
			else if (t < 60) { f = (b & c) | (b & d) | (c & d); k = 2400959708 | 0; }
			else { f = b ^ c ^ d; k = 3395469782 | 0; }
			var tmp = (rol(a, 5) + f + e + k + W[t]) | 0;
			e = d; d = c; c = rol(b, 30); b = a; a = tmp;
		}
		h0 = (h0 + a) | 0; h1 = (h1 + b) | 0; h2 = (h2 + c) | 0; h3 = (h3 + d) | 0; h4 = (h4 + e) | 0;
	}
	return [h0, h1, h2, h3, h4];
}
var acc = 0;
for (var r = 0; r < REPS; r++) {
	var msg = new Uint8Array(8192);
	for (var i = 0; i < 8192; i++) msg[i] = (i * 7 + r * 13 + 1) & 255;
	var h = sha1(msg);
	acc = (acc ^ h[0] ^ h[2] ^ h[4]) | 0;
}
print_i(acc);
var __exit = acc & 65535;
`, reps)
}
