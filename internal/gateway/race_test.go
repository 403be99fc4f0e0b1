//go:build race

package gateway

// raceEnabled reports that the race detector is on; under it sync.Pool
// drops a quarter of what is Put, so allocation budgets cannot hold.
const raceEnabled = true
