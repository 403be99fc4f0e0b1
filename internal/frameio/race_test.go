//go:build race

package frameio

// raceEnabled reports that the race detector is on; under it sync.Pool
// drops a quarter of what is Put, so a pooled read may allocate.
const raceEnabled = true
