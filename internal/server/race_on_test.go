//go:build race

package server

// raceEnabled: the race detector's allocator keeps shadow memory beside
// the heap, so heap bounds do not hold, and its instrumentation does
// not slow every path alike, so neither do timing ratios.
const raceEnabled = true
