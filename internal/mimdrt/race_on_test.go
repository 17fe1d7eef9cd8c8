//go:build race

package mimdrt

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own and makes allocation counts vary.
const raceEnabled = true
