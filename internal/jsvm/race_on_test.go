//go:build race

package jsvm_test

// raceEnabled thins TestJSFrontEnd's kernel sources under -race.
const raceEnabled = true
