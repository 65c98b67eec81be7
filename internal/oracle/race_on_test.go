//go:build race

package oracle_test

// raceEnabled: under the race detector the interpreter runs several
// times slower, so the dispatch fixtures run on smaller trees.
const raceEnabled = true
