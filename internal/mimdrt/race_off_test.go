//go:build !race

package mimdrt

const raceEnabled = false
