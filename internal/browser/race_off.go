//go:build !race

package browser

// raceEnabled reports whether the race detector is active. The JS and x86
// sections of the virtual-metrics ledger check every ledgerRaceStride-th
// kernel under -race (the detector costs ~10× on the interpreters);
// `go test ./...` checks every cell.
const raceEnabled = false
