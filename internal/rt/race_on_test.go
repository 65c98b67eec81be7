//go:build race

package rt_test

// raceEnabled: under the race detector sync.Pool drops a share of what
// is put into it, so allocation pins do not hold.
const raceEnabled = true
