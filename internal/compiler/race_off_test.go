//go:build !race

package compiler

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
