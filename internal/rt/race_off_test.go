//go:build !race

package rt_test

const raceEnabled = false
