//go:build !race

package commute_test

const raceEnabled = false
