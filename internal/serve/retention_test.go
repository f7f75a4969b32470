package serve

import (
	"runtime"
	"testing"
	"time"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/harness"
)

// retentionBound is how much live heap one server may keep after serving
// retentionArtifacts distinct Emscripten Wasm artifacts: the artifact
// cache and the per-artifact pools retain code, not linear memory.
const (
	retentionArtifacts = 200
	retentionBound     = 64 << 20
	// retentionRaceStride thins the draw under -race (every 8th artifact),
	// where the detector costs ~10× on compile and run.
	retentionRaceStride = 8
)

// TestServeRetention: an Emscripten build's 16 MiB initial heap must not
// stay resident per served artifact. The snapshot holds no memory image
// and an idle pooled instance holds no linear memory, so heap in use after
// GC grows by the artifacts' code, not by 16 MiB or more per artifact.
func TestServeRetention(t *testing.T) {
	stride := 1
	if raceEnabled {
		stride = retentionRaceStride
	}
	// Distinct artifacts: the 41 kernels at each optimization level in turn.
	kernels := benchsuite.All()
	levels := []string{"0", "1", "2", "3", "s", "z", "fast"}
	var reqs []*Request
	for i := 0; i < retentionArtifacts; i += stride {
		reqs = append(reqs, &Request{Bench: kernels[i%len(kernels)].Name, Size: "XS",
			Level: levels[i/len(kernels)], Toolchain: "emscripten", Profile: "chrome-desktop"})
	}
	s := NewServer(Config{Workers: 2})
	defer drain(t, s, 10*time.Second)
	before := heapInUse()
	for _, req := range reqs {
		if resp := s.Submit(req); resp.Status != StatusOK {
			t.Fatalf("%+v: %s %s", *req, resp.Status, resp.Error)
		}
	}
	grown := int64(heapInUse()) - int64(before)
	t.Logf("%d artifacts: heap in use grew %.1f MiB", len(reqs), float64(grown)/(1<<20))
	if grown > retentionBound {
		t.Errorf("%d distinct artifacts retained %.1f MiB, bound %d MiB",
			len(reqs), float64(grown)/(1<<20), retentionBound>>20)
	}
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestServeCacheBound: a server that only ever sees new artifacts keeps at
// most harness.MaxCachedArtifacts of them, evicting the least recently
// used; an artifact requested again along the way stays cached. The Wasm
// instance pools follow the cache: a pool goes when its artifact does.
// Every measurement fails on a one-step budget, so the test pays for
// compiles alone (the cache holds compiled artifacts, whatever the run
// does). The Wasm requests come first, so more Wasm artifacts than the cap
// pass through.
func TestServeCacheBound(t *testing.T) {
	kernels := benchsuite.All()
	levels := []string{"0", "1", "2", "3", "s", "z", "fast"}
	var reqs []*Request
	for _, lang := range []string{"wasm", "js"} {
		for _, tc := range []string{"cheerp", "emscripten"} {
			for _, lv := range levels {
				for _, k := range kernels {
					reqs = append(reqs, &Request{Bench: k.Name, Size: "XS", Lang: lang,
						Level: lv, Toolchain: tc, Profile: "chrome-desktop"})
				}
			}
		}
	}
	reqs = reqs[:harness.MaxCachedArtifacts+40]
	s := NewServer(Config{Workers: 2, StepLimit: 1})
	defer drain(t, s, 10*time.Second)
	hot := reqs[0]
	for i, req := range reqs {
		if resp := s.Submit(req); resp.Status != StatusFailed {
			t.Fatalf("%+v: %s %s, want a step-limit failure", *req, resp.Status, resp.Error)
		}
		if i%100 == 99 {
			s.Submit(hot) // keep the first artifact recently used
		}
	}
	if n := s.cache.Len(); n > harness.MaxCachedArtifacts {
		t.Errorf("cache holds %d artifacts after %d distinct, cap %d", n, len(reqs), harness.MaxCachedArtifacts)
	}
	if n := s.pools.PoolCount(); n > harness.MaxCachedArtifacts {
		t.Errorf("%d instance pools after %d distinct Wasm artifacts, cap %d", n, len(reqs), harness.MaxCachedArtifacts)
	}
	st := s.cache.Stats()
	if want := len(reqs) - harness.MaxCachedArtifacts; st.Evictions != want {
		t.Errorf("Evictions = %d, want %d", st.Evictions, want)
	}
	hits := st.Hits
	s.Submit(hot)
	if s.cache.Stats().Hits != hits+1 {
		t.Error("the recently used artifact was evicted")
	}
}
