//go:build race

package server

// raceEnabled: the race detector's allocator keeps shadow memory beside
// the heap, so heap bounds do not hold.
const raceEnabled = true
