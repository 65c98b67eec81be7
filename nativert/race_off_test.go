//go:build !race

package nativert

const raceEnabled = false
