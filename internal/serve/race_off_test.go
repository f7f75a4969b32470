//go:build !race

package serve

// raceEnabled reports whether the race detector is active; tests that
// drive many artifacts thin their draw under -race.
const raceEnabled = false
