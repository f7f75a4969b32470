//go:build race

package browser

// raceEnabled reports whether the race detector is active (see race_off.go).
const raceEnabled = true
