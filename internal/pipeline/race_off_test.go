//go:build !race

package pipeline

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, making allocation counts of pooled code paths vary.
const raceEnabled = false
