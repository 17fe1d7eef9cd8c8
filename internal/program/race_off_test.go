//go:build !race

package program

const raceEnabled = false
