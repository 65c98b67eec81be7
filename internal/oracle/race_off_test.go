//go:build !race

package oracle_test

const raceEnabled = false
