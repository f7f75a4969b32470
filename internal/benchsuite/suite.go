// Package benchsuite provides the study's subject programs (§4.1): the 41
// C benchmarks (30 PolyBenchC + 11 CHStone) in minic, the five input-size
// classes, the 9 manually-written JavaScript benchmarks, and the three
// real-world application analogues.
//
// Input sizing follows the substitution documented in DESIGN.md: each
// kernel allocates the *paper's* dataset dimensions (define NA etc.), so
// the memory metrics match the study, while the computed iteration space
// (define NC) is scaled down so the interpreted substrate finishes in
// laboratory time. Time *shape* across size classes is preserved because
// NC grows with the class.
package benchsuite

import "fmt"

// Size is an input-size class (§3.2).
type Size int

// The five input sizes.
const (
	XS Size = iota
	S
	M
	L
	XL
)

var sizeNames = [...]string{"XS", "S", "M", "L", "XL"}

func (s Size) String() string { return sizeNames[s] }

// AllSizes lists the classes in order.
var AllSizes = []Size{XS, S, M, L, XL}

// SizeSpec configures one size class of one benchmark.
type SizeSpec struct {
	// Defines are the -D macro values selecting the input.
	Defines map[string]string
	// HeapMB overrides cheerp-linear-heap-size when the default 8 MiB is
	// too small (the paper's §3.2 flag); 0 keeps the default.
	HeapMB int
}

// Benchmark is one subject program.
type Benchmark struct {
	Name     string
	Suite    string // "polybench" or "chstone"
	Category string // the paper's §4.1.1 use-case attribution
	Source   string
	Sizes    map[Size]SizeSpec
	// JS, when set, is a hand-written JavaScript program (Table 9's manual
	// implementations, Table 10's JS sides). It runs as written: there is
	// no Source to compile, and no size class.
	JS string
	// Module names the compiled Wasm module when it is not Name.
	Module string
}

// ModuleName returns the name the compiled Wasm module carries.
func (b *Benchmark) ModuleName() string {
	if b.Module != "" {
		return b.Module
	}
	return b.Name
}

// HeapLimitBytes returns the heap limit for a size class (0 = toolchain
// default).
func (b *Benchmark) HeapLimitBytes(s Size) uint32 {
	mb := b.Sizes[s].HeapMB
	if mb == 0 {
		return 0
	}
	return uint32(mb) << 20
}

// Defines returns the macro set for a size class.
func (b *Benchmark) Defines(s Size) map[string]string {
	return b.Sizes[s].Defines
}

// All returns the 41 benchmarks: PolyBenchC first, then CHStone, in the
// paper's Table 1 order.
func All() []*Benchmark {
	out := append([]*Benchmark{}, PolyBench()...)
	return append(out, CHStone()...)
}

// ByName finds a benchmark.
func ByName(name string) (*Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("benchsuite: unknown benchmark %q", name)
}

// matSizes builds the standard matrix-kernel size table: NA is the paper's
// PolyBench dataset dimension (mini..extralarge), NC the computed extent.
// The L and XL classes need the heap limit raised for their 8–128 MiB of
// arrays (cheerp-linear-heap-size, §3.2). nArrays scales the heap budget.
func matSizes(nArrays int, extra map[Size]map[string]string) map[Size]SizeSpec {
	na := map[Size]int{XS: 16, S: 60, M: 200, L: 1000, XL: 2000}
	nc := map[Size]int{XS: 6, S: 12, M: 26, L: 40, XL: 56}
	out := map[Size]SizeSpec{}
	for _, sz := range AllSizes {
		d := map[string]string{
			"NA": fmt.Sprint(na[sz]),
			"NC": fmt.Sprint(nc[sz]),
		}
		for k, v := range extra[sz] {
			d[k] = v
		}
		heapMB := 0
		need := nArrays * na[sz] * na[sz] * 8 / (1 << 20)
		if need > 5 {
			heapMB = need + need/4 + 4
		}
		out[sz] = SizeSpec{Defines: d, HeapMB: heapMB}
	}
	return out
}

// vecSizes builds the size table for matrix-vector / 1D kernels: one N²
// matrix plus vectors; compute extent grows faster since work is O(N²).
func vecSizes(nMatrices int) map[Size]SizeSpec {
	na := map[Size]int{XS: 16, S: 60, M: 200, L: 1000, XL: 2000}
	nc := map[Size]int{XS: 10, S: 40, M: 140, L: 420, XL: 800}
	out := map[Size]SizeSpec{}
	for _, sz := range AllSizes {
		heapMB := 0
		need := nMatrices * na[sz] * na[sz] * 8 / (1 << 20)
		if need > 5 {
			heapMB = need + need/4 + 4
		}
		out[sz] = SizeSpec{
			Defines: map[string]string{
				"NA": fmt.Sprint(na[sz]),
				"NC": fmt.Sprint(nc[sz]),
			},
			HeapMB: heapMB,
		}
	}
	return out
}

// stencilSizes builds the size table for time-stepped stencils.
func stencilSizes(nArrays int, tsteps map[Size]int) map[Size]SizeSpec {
	base := matSizes(nArrays, nil)
	nc := map[Size]int{XS: 6, S: 10, M: 20, L: 30, XL: 40}
	for _, sz := range AllSizes {
		spec := base[sz]
		spec.Defines["NC"] = fmt.Sprint(nc[sz])
		spec.Defines["TS"] = fmt.Sprint(tsteps[sz])
		base[sz] = spec
	}
	return base
}

// repSizes builds CHStone-style size tables: fixed algorithm, scaled
// repetition count.
func repSizes(reps map[Size]int) map[Size]SizeSpec {
	out := map[Size]SizeSpec{}
	for _, sz := range AllSizes {
		out[sz] = SizeSpec{Defines: map[string]string{"REPS": fmt.Sprint(reps[sz])}}
	}
	return out
}

var defaultReps = map[Size]int{XS: 1, S: 3, M: 10, L: 30, XL: 80}
