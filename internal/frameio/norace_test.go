//go:build !race

package frameio

// raceEnabled reports that the race detector is on.
const raceEnabled = false
