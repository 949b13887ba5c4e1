//go:build race

package compiler

// raceEnabled reports that this test binary was built with -race: the tile
// differential then maps the tiny networks and mobilenetv2 only.
const raceEnabled = true
