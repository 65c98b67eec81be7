// Benchmarks regenerating the paper's tables and figures (one benchmark
// per table/figure, delegating to the internal/bench harness at
// benchmark-friendly sizes), plus microbenchmarks of the compiler
// phases and the real parallel runtime.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package commute_test

import (
	"context"
	"runtime"
	"testing"

	"commute"
	"commute/internal/apps"
	"commute/internal/apps/src"
	"commute/internal/bench"
	"commute/internal/codegen"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
)

func benchRunner() *bench.Runner {
	return bench.NewRunner(bench.Config{
		BHBodies:   []int{256},
		BHSteps:    1,
		WaterMols:  []int{64},
		WaterSteps: 1,
		Procs:      []int{1, 2, 4, 8, 16, 32},
	})
}

// benchExperiment runs one harness experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r := benchRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkFig17(b *testing.B)   { benchExperiment(b, "fig17") }
func BenchmarkTable4(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)  { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)  { benchExperiment(b, "table6") }
func BenchmarkFig18(b *testing.B)   { benchExperiment(b, "fig18") }
func BenchmarkTable7(b *testing.B)  { benchExperiment(b, "table7") }
func BenchmarkTable8(b *testing.B)  { benchExperiment(b, "table8") }
func BenchmarkTable9(b *testing.B)  { benchExperiment(b, "table9") }
func BenchmarkFig19(b *testing.B)   { benchExperiment(b, "fig19") }
func BenchmarkTable10(b *testing.B) { benchExperiment(b, "table10") }
func BenchmarkTable11(b *testing.B) { benchExperiment(b, "table11") }
func BenchmarkFig20(b *testing.B)   { benchExperiment(b, "fig20") }
func BenchmarkTable12(b *testing.B) { benchExperiment(b, "table12") }

func BenchmarkAblationAux(b *testing.B)      { benchExperiment(b, "ablation-aux") }
func BenchmarkAblationLocks(b *testing.B)    { benchExperiment(b, "ablation-locks") }
func BenchmarkAblationSuppress(b *testing.B) { benchExperiment(b, "ablation-suppress") }
func BenchmarkDepBase(b *testing.B)          { benchExperiment(b, "depbase") }

// ---------------------------------------------------------------------
// Compiler phase microbenchmarks

// BenchmarkAnalyzeBarnesHut measures the full front end + commutativity
// analysis + code generation on Barnes-Hut (the paper reports 2.5s on a
// 1995 SparcStation for the analysis alone, §6.2.3).
func BenchmarkAnalyzeBarnesHut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := commute.Load("barneshut.mc", src.BarnesHut)
		if err != nil {
			b.Fatal(err)
		}
		sys.Reports()
	}
}

// BenchmarkEmitGoBarnesHut isolates the native emitter: the plan of
// an already analyzed Barnes-Hut lowered to its Go package, the layer
// e2ebench reports as codegen.emit_go_ms.
func BenchmarkEmitGoBarnesHut(b *testing.B) {
	sys, err := commute.Load("barneshut.mc", src.BarnesHut)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Plan.EmitGoPackage(codegen.EmitGoOptions{AppName: "barneshut"}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCompile measures a whole cold compile (compileCold): what
// e2ebench's compile operation runs per program, with the bytes and
// allocations TestCompileAllocBudget bounds.
func benchCompile(b *testing.B, name, source string, opts commute.LoadOptions) {
	b.ReportAllocs()
	b.SetBytes(int64(len(source)))
	for i := 0; i < b.N; i++ {
		if err := compileCold(name, source, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileBarnesHut(b *testing.B) {
	benchCompile(b, "barneshut", src.BarnesHut, commute.LoadOptions{})
}

// BenchmarkCompileWhile is a program the §7.2 transform rewrites first.
func BenchmarkCompileWhile(b *testing.B) {
	benchCompile(b, "twoclass", whileTwoClass, commute.LoadOptions{Transform: true})
}

// BenchmarkAnalyzeWater is the Water analogue (paper: 6.65s, §6.3.3).
func BenchmarkAnalyzeWater(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := commute.Load("water.mc", src.Water)
		if err != nil {
			b.Fatal(err)
		}
		sys.Reports()
	}
}

// BenchmarkParseBarnesHut isolates the front end: parse and type check,
// no analysis and no plans.
func BenchmarkParseBarnesHut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		file, err := parser.Parse("barneshut.mc", src.BarnesHut)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := types.Check(file); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Real parallel runtime benchmarks (goroutine-backed execution of the
// generated parallel code)

func benchRealParallel(b *testing.B, sys *commute.System, workers int) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.RunParallel(workers, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealBarnesHutSerial(b *testing.B) {
	sys, err := apps.BarnesHut(256, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunSerial(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealBarnesHutParallel1(b *testing.B) {
	sys, err := apps.BarnesHut(256, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchRealParallel(b, sys, 1)
}

func BenchmarkRealBarnesHutParallelN(b *testing.B) {
	sys, err := apps.BarnesHut(256, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchRealParallel(b, sys, runtime.NumCPU())
}

func BenchmarkRealWaterParallelN(b *testing.B) {
	sys, err := apps.Water(64, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchRealParallel(b, sys, runtime.NumCPU())
}

// BenchmarkSimulate32 isolates the multiprocessor simulator.
func BenchmarkSimulate32(b *testing.B) {
	sys, err := apps.BarnesHut(256, 1)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sys.Trace(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commute.Simulate(tr, 32)
	}
}
