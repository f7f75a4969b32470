package wasmvm

import (
	"testing"

	"wasmbench/internal/wasm"
)

// BenchmarkSnapshotRestore compares the two ways to obtain a runnable
// instance: a cold decode+instantiate, and a clone from a post-init
// snapshot (shared lowered code, no validation or lowering), the way an
// InstancePool serves every checkout after its first. The -273p variants
// run both on an Emscripten-shaped 273-page module, whose 17 MiB memory
// neither commits.
// This is the host-time win the pool trades on; the virtual instantiation
// charge is identical on every path.
func BenchmarkSnapshotRestore(b *testing.B) {
	cfg := DefaultConfig()
	for _, v := range []struct {
		suffix string
		mod    func() *wasm.Module
	}{{"", snapModule}, {"-273p", emscriptenShapedModule}} {
		mod := v.mod()
		b.Run("cold"+v.suffix, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vm, err := New(mod, 123, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := vm.Instantiate(); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run("clone"+v.suffix, func(b *testing.B) {
			vm, err := New(mod, 123, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := vm.Instantiate(); err != nil {
				b.Fatal(err)
			}
			snap, err := vm.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := snap.NewVM(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
