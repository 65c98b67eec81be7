package bench

import (
	"testing"

	"commute"
	"commute/internal/analysis/symbolic"
	"commute/internal/apps"
)

// Analysis-phase benchmarks: go test -bench 'Analyze|SimplifyDeep|PairTest' ./internal/bench/
//
// Each Analyze iteration is a full cold analysis (fresh core.Analysis,
// fresh effects memos) of a shared checked program; the serial/parallel
// sub-benchmarks differ only in the driver's Workers setting.

func benchAnalyze(b *testing.B, sys *commute.System) {
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			AnalyzeCold(sys, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			AnalyzeCold(sys, 0) // GOMAXPROCS
		}
	})
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
