package rt_test

import (
	"math/rand"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/interp"
	"commute/internal/oracle"
	"commute/internal/rt"
)

// benchRuns runs source at 4 workers b.N times, its work estimates
// cleared.
func benchRuns(b *testing.B, source string) {
	sys := oracle.ClearWork(oracle.Load(b, "bench.mc", source))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.New(interp.New(sys.Code(), nil), sys.Plan, 4).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelLoopChunk measures a parallel-loop-dominated program
// end to end. allocs/op is the interesting number: chunk execution used
// to deep-copy the parent's variable map per chunk; slot frames copy
// one []Value per GSS worker instead.
func BenchmarkParallelLoopChunk(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	c := oracle.DrawCounters(r)
	c.N, c.Updates, c.Loop, c.Step, c.Reach = 8, 200, oracle.LoopShapes[0], 1, oracle.Direct
	benchRuns(b, c.Source(r))
}

// BenchmarkSpawnHeavy measures the task-heavy graph traversal, a task
// per visit. On a single-core host the numbers mostly show scheduling
// overhead.
func BenchmarkSpawnHeavy(b *testing.B) { benchRuns(b, src.Graph) }
