package bench

import (
	"testing"

	"commute"
	"commute/internal/analysis/symbolic"
	"commute/internal/apps"
	"commute/internal/core"
)

// Analysis-phase benchmarks: go test -bench 'Analyze|SimplifyDeep|PairTest' ./internal/bench/
//
// Each Analyze iteration is a full cold analysis (fresh core.Analysis,
// fresh effects memos) of a shared checked program.

func benchAnalyze(b *testing.B, sys *commute.System) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.New(sys.Prog).AnalyzeAll()
	}
}

func BenchmarkAnalyzeBarnesHut(b *testing.B) {
	sys, err := apps.BarnesHut(64, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchAnalyze(b, sys)
}

func BenchmarkAnalyzeWater(b *testing.B) {
	sys, err := apps.Water(16, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchAnalyze(b, sys)
}

func BenchmarkSimplifyDeep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		symbolic.Simplify(symbolic.NewTable(), DeepExpr(200))
	}
}

func BenchmarkPairTest(b *testing.B) {
	pt, err := NewPairTest()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := pt.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
