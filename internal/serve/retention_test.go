package serve

import (
	"runtime"
	"testing"
	"time"

	"wasmbench/internal/benchsuite"
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
