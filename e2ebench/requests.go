package main

import (
	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/serve"
)

// Request lists are pure functions of the seed: the benchmark draws them,
// the server only ever sees the generated requests.

// splitmix64 is a stateless 64-bit mixer; seeded streams are built from it
// so that a request depends only on (seed, position).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type rng struct{ state uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{state: splitmix64(seed) ^ splitmix64(stream+0x5eed)}
}

func (r *rng) next() uint64 {
	r.state = splitmix64(r.state)
	return r.state
}

// intn returns a uniform draw in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes n items in place through swap (Fisher–Yates).
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// kernels and profiles are the suite's 41 kernel names and six browser
// profile names, in their fixed suite order.
var kernels, profiles = func() (ks, ps []string) {
	for _, b := range benchsuite.All() {
		ks = append(ks, b.Name)
	}
	for _, p := range browser.AllProfiles() {
		ps = append(ps, p.Name())
	}
	return ks, ps
}()

// warmRound returns round `round` of the serve-warm stream: warmPasses
// passes over the 41 kernels, each request under a seeded browser profile,
// in seeded order, always Wasm at -O2 and size M, so that after set-up
// each one is an artifact-cache hit served from a warm pool. Every round
// carries the same kernels, so round times and latency percentiles differ
// between seeds only by profile and order, not by which kernels the draw
// happened to favour (per-request cost at size M spans 6 ms to 180 ms).
func warmRound(seed uint64, round int) []serve.Request {
	r := newRNG(seed, uint64(round))
	out := make([]serve.Request, 0, warmPasses*len(kernels))
	for p := 0; p < warmPasses; p++ {
		for _, k := range kernels {
			out = append(out, serve.Request{Bench: k, Profile: profiles[r.intn(len(profiles))],
				Size: "M", Lang: "wasm", Level: "2"})
		}
	}
	r.shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// prewarmRequests is the serve-warm set-up pass: every kernel once, which
// compiles every artifact and captures every pool's snapshot.
func prewarmRequests() []serve.Request {
	out := make([]serve.Request, len(kernels))
	for i, k := range kernels {
		out[i] = serve.Request{Bench: k, Profile: profiles[i%len(profiles)],
			Size: "M", Lang: "wasm", Level: "2"}
	}
	return out
}

// warmupRequests is the untimed pass between set-up and measurement: every
// kernel under every browser profile, so that each pool has captured the
// snapshot of every configuration shape the rounds can ask for.
func warmupRequests() []serve.Request {
	var out []serve.Request
	for _, k := range kernels {
		for _, p := range profiles {
			out = append(out, serve.Request{Bench: k, Profile: p, Size: "M", Lang: "wasm", Level: "2"})
		}
	}
	return out
}

// coldLevels are the seven -O spellings a request accepts.
var coldLevels = []string{"0", "1", "2", "3", "s", "z", "fast"}

// coldClass is one toolchain × backend stratum of the serve-cold space.
type coldClass struct{ toolchain, lang string }

var coldClasses = []coldClass{
	{"cheerp", "wasm"}, {"cheerp", "js"}, {"emscripten", "wasm"}, {"emscripten", "js"},
}

// coldRounds draws cycle `cycle` of the serve-cold request rounds: a
// seeded draw without replacement from 41 kernels × 7 levels × 2
// toolchains × 2 backends at size XS, so no artifact appears twice in a
// cycle. Each round runs on a fresh server, so a run that outlasts one
// cycle starts another, drawn afresh, and every request is still a miss.
// Each round takes the same number of requests from every toolchain ×
// backend class, so every round (and so every run) carries the same
// memory-heavy Emscripten Wasm share; the order within a round is
// shuffled.
func coldRounds(seed uint64, cycle int) [][]serve.Request {
	k := coldRoundSize / len(coldClasses)
	c := uint64(cycle) << 40
	var pools [][]serve.Request
	for ci, cl := range coldClasses {
		var all []serve.Request
		for _, kn := range kernels {
			for _, lv := range coldLevels {
				all = append(all, serve.Request{Bench: kn, Level: lv, Toolchain: cl.toolchain,
					Lang: cl.lang, Size: "XS", Profile: "chrome-desktop"})
			}
		}
		newRNG(seed, c+1<<32+uint64(ci)).shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		pools = append(pools, all)
	}
	nRounds := len(pools[0]) / k
	rounds := make([][]serve.Request, nRounds)
	for r := range rounds {
		var round []serve.Request
		for _, p := range pools {
			round = append(round, p[r*k:(r+1)*k]...)
		}
		newRNG(seed, c+2<<32+uint64(r)).shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		rounds[r] = round
	}
	return rounds
}
