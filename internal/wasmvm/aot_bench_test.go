package wasmvm

import "testing"

// BenchmarkAOTTier measures wall-clock dispatch on the hot sum loop in the
// optimizing tier: AOT superblocks against the stack loop (what serves the
// tier when AOT is off or bails). The warm-up call tiers up and, on the AOT
// side, OSRs into superblocks, so every timed iteration runs one indirect
// call per superblock instead of one switch per instruction; virtual
// cycles are identical across variants, only host time differs.
func BenchmarkAOTTier(b *testing.B) {
	run := func(b *testing.B, disableAOT bool) {
		cfg := DefaultConfig()
		cfg.TierUpThreshold = 100
		cfg.DisableAOTTier = disableAOT
		vm, err := New(buildModule(), 0, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := vm.Instantiate(); err != nil {
			b.Fatal(err)
		}
		const n = 100000
		if _, err := vm.Call("sum", I32(n)); err != nil {
			b.Fatal(err)
		}
		if !disableAOT && vm.AOTTranslated() == 0 {
			b.Fatal("warm-up did not engage the AOT tier")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := vm.Call("sum", I32(n)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(vm.Stats().Steps)/float64(b.N), "steps/op")
	}
	b.Run("aot", func(b *testing.B) { run(b, false) })
	b.Run("stack", func(b *testing.B) { run(b, true) })
}
