//go:build race

package commute_test

// raceEnabled: the race detector's allocator does not honour byte
// budgets; tests that have one keep their other checks and skip it.
const raceEnabled = true
