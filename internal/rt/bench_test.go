package rt_test

import (
	"math/rand"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/interp"
	"commute/internal/rt"
)

// buildBench compiles for benchmarks (build is testing.TB-generic).
// The heavy lifting is shared with the correctness tests in rt_test.go.

// BenchmarkParallelLoopChunk measures a parallel-loop-dominated program
// end to end. allocs/op is the interesting number: chunk execution used
// to deep-copy the parent's variable map per chunk; slot frames copy
// one []Value per GSS worker instead.
func BenchmarkParallelLoopChunk(b *testing.B) {
	source := genCommutingProgram(rand.New(rand.NewSource(7)), 8, 200)
	prog, plan := build(b, source)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip := interp.New(prog, nil)
		r := rt.New(ip, plan, 4)
		if err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpawnHeavy measures the task-heavy graph traversal, a task
// per visit. On a single-core host the numbers mostly show scheduling
// overhead.
func BenchmarkSpawnHeavy(b *testing.B) {
	prog, plan := build(b, src.Graph)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ip := interp.New(prog, nil)
		r := rt.New(ip, plan, 4)
		if err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
