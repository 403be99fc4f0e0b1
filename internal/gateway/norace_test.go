//go:build !race

package gateway

// raceEnabled reports that the race detector is on.
const raceEnabled = false
