//go:build race

package nativert

// raceEnabled: under the race detector sync.Pool drops a share of what
// is put into it, so allocation pins do not hold.
const raceEnabled = true
