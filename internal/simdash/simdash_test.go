package simdash_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/core"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
	"commute/internal/interp"
	"commute/internal/simdash"
	"commute/internal/tracer"
)

func collect(t testing.TB, source string) *tracer.Trace {
	t.Helper()
	f, err := parser.Parse("app.mc", source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := types.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	plan := codegen.Build(core.New(prog))
	tr, err := tracer.Collect(context.Background(), interp.NewEngine(interp.Compile(prog), nil, interp.EngineWalk), plan)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return tr
}

// TestTraceStructure: the Barnes-Hut trace alternates serial phases
// (tree build, COM) with parallel loop regions (reset, force, velocity,
// position).
func TestTraceStructure(t *testing.T) {
	tr := collect(t, src.BarnesHut)
	var serial, regions int
	for _, ph := range tr.Phases {
		if ph.Root == nil {
			serial++
		} else {
			regions++
		}
	}
	// Two steps × four parallel loops each.
	if regions != 8 {
		t.Errorf("parallel regions = %d, want 8", regions)
	}
	if serial == 0 {
		t.Error("no serial phases (tree build must be serial)")
	}
	if tr.ParallelUnits() == 0 || tr.SerialUnits() == 0 {
		t.Error("trace units empty")
	}
	// The force phase dominates: parallel units far exceed serial.
	if tr.ParallelUnits() < tr.SerialUnits() {
		t.Errorf("parallel units %d < serial units %d; force phase should dominate",
			tr.ParallelUnits(), tr.SerialUnits())
	}
}

// TestConservation: cumulative breakdown equals wall time × processors.
func TestConservation(t *testing.T) {
	for _, source := range []string{src.BarnesHut, src.Water, src.Graph} {
		tr := collect(t, source)
		for _, procs := range []int{1, 2, 7, 16, 32} {
			r := simdash.Simulate(tr, simdash.DefaultParams(procs))
			want := r.TimeMicros * float64(procs)
			got := r.Breakdown.Total()
			if math.Abs(got-want)/want > 1e-6 {
				t.Errorf("procs=%d: breakdown total %.1f != time×procs %.1f", procs, got, want)
			}
		}
	}
}

// TestSpeedupShape: Barnes-Hut speeds up monotonically at small
// processor counts and its serial-idle share grows with the processor
// count (Figure 18's story).
func TestSpeedupShape(t *testing.T) {
	tr := collect(t, src.BarnesHut)
	t1 := simdash.Simulate(tr, simdash.DefaultParams(1)).TimeMicros
	prev := math.Inf(1)
	for _, procs := range []int{1, 2, 4, 8} {
		r := simdash.Simulate(tr, simdash.DefaultParams(procs))
		if r.TimeMicros >= prev {
			t.Errorf("no speedup from %d processors: %.0f ≥ %.0f", procs, r.TimeMicros, prev)
		}
		prev = r.TimeMicros
	}
	r32 := simdash.Simulate(tr, simdash.DefaultParams(32))
	speedup := t1 / r32.TimeMicros
	if speedup < 2 {
		t.Errorf("32-processor speedup = %.2f, want meaningful scaling", speedup)
	}
	// Serial idle grows superlinearly with processors.
	r2 := simdash.Simulate(tr, simdash.DefaultParams(2))
	if r32.Breakdown.SerialIdle <= r2.Breakdown.SerialIdle {
		t.Error("serial idle should grow with the processor count")
	}
}

// TestWaterContention: Water's blocked time grows dramatically with the
// processor count (Figure 20's story) while Barnes-Hut's stays small.
func TestWaterContention(t *testing.T) {
	water := collect(t, src.Water)
	w2 := simdash.Simulate(water, simdash.DefaultParams(2))
	w16 := simdash.Simulate(water, simdash.DefaultParams(16))
	if w16.Breakdown.Blocked <= w2.Breakdown.Blocked {
		t.Errorf("Water blocked time should grow: %.0f (2p) vs %.0f (16p)",
			w2.Breakdown.Blocked, w16.Breakdown.Blocked)
	}
	bh := collect(t, src.BarnesHut)
	b16 := simdash.Simulate(bh, simdash.DefaultParams(16))
	wShare := w16.Breakdown.Blocked / w16.Breakdown.Total()
	bShare := b16.Breakdown.Blocked / b16.Breakdown.Total()
	if wShare <= bShare {
		t.Errorf("Water blocked share (%.3f) should exceed Barnes-Hut's (%.3f)", wShare, bShare)
	}
}

// TestCountersMatchWorkload: iteration counts equal the trace's loop
// iterations regardless of the processor count.
func TestCountersMatchWorkload(t *testing.T) {
	tr := collect(t, src.BarnesHut)
	var want int64
	for _, ph := range tr.Phases {
		if ph.Root == nil {
			continue
		}
		for _, e := range ph.Root.Events {
			if e.Kind == tracer.EvLoop {
				want += int64(len(e.Iters))
			}
		}
	}
	for _, procs := range []int{1, 8, 32} {
		r := simdash.Simulate(tr, simdash.DefaultParams(procs))
		if r.Counters.Iterations != want {
			t.Errorf("procs=%d: iterations = %d, want %d", procs, r.Counters.Iterations, want)
		}
		if r.Counters.Locks == 0 {
			t.Errorf("procs=%d: no lock events", procs)
		}
	}
}

// TestGraphTaskRegion: the graph traversal produces a spawn-style task
// region that scales with workers.
func TestGraphTaskRegion(t *testing.T) {
	tr := collect(t, src.Graph)
	var tasks int
	for _, ph := range tr.Phases {
		if ph.Root != nil {
			var count func(task *tracer.Task) int
			count = func(task *tracer.Task) int {
				n := 1
				for _, e := range task.Events {
					if e.Kind == tracer.EvSpawn {
						n += count(e.Child)
					}
				}
				return n
			}
			tasks += count(ph.Root)
		}
	}
	if tasks < 64 {
		t.Errorf("graph region tasks = %d, want ≥ number of edges visited", tasks)
	}
	t1 := simdash.Simulate(tr, simdash.DefaultParams(1)).TimeMicros
	t8 := simdash.Simulate(tr, simdash.DefaultParams(8)).TimeMicros
	if t8 >= t1 {
		t.Errorf("graph traversal does not speed up: %.0f (1p) vs %.0f (8p)", t1, t8)
	}
}

// Exploration helper: print the simulated scaling tables when -v is
// used with -run Explore.
func TestExploreScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration only")
	}
	for _, tc := range []struct {
		name string
		src  string
	}{{"BarnesHut", src.BarnesHut}, {"Water", src.Water}} {
		tr := collect(t, tc.src)
		t1 := simdash.Simulate(tr, simdash.DefaultParams(1)).TimeMicros
		line := tc.name + ":"
		for _, procs := range []int{1, 2, 4, 8, 16, 32} {
			r := simdash.Simulate(tr, simdash.DefaultParams(procs))
			line += fmt.Sprintf(" %d:%.2fx", procs, t1/r.TimeMicros)
		}
		t.Log(line)
	}
}
