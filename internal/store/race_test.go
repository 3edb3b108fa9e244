//go:build race

package store

// The race detector drops sync.Pool entries at random, so allocation counts
// of code that pools (encoding/json, fmt) vary from run to run under -race.
func init() { raceEnabled = true }
