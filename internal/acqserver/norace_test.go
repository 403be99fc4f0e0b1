//go:build !race

package acqserver

// raceEnabled reports that the race detector is on.
const raceEnabled = false
