package tracer_test

import (
	"bytes"
	"context"
	"io"
	"math"
	"strings"
	"testing"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/core"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
	"commute/internal/interp"
	"commute/internal/nativegen"
	"commute/internal/simdash"
	"commute/internal/tracer"
)

func setup(t *testing.T, source string) (*types.Program, *codegen.Plan) {
	t.Helper()
	f, err := parser.Parse("app.mc", source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := types.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return prog, codegen.Build(core.New(prog))
}

// collect traces prog under plan on a fresh tree walker writing to out.
func collect(prog *types.Program, out io.Writer, plan *codegen.Plan) (*tracer.Trace, error) {
	return tracer.Collect(context.Background(), interp.NewEngine(interp.Compile(prog), out, interp.EngineWalk), plan)
}

// TestUnitConservation: the trace accounts for the work a serial run of
// the tree walker charges — partitioning the execution into phases and tasks
// neither creates nor loses cost. Loops are the one place the two may
// differ: a parallel loop evaluates its bound once where the serial loop
// tests its condition every iteration, and a loop that a parallel or
// mutex version offers to the dispatcher, and the dispatcher declines,
// evaluates its bound once more. Below a serial version nothing is
// offered. So the programs here whose traces hold no parallel loop —
// their parallel and mutex versions run no counted loop — must account
// for exactly the serial units, and Barnes-Hut and Water, whose traces
// do, for them within 0.3%.
func TestUnitConservation(t *testing.T) {
	sources := map[string]string{"graph": src.Graph, "barneshut": src.BarnesHut, "water": src.Water}
	for _, fx := range src.DispatchFixtures() {
		sources[fx.Name] = fx.AtDepth(6)
	}
	for name, source := range sources {
		prog, plan := setup(t, source)

		ipSerial := interp.NewEngine(interp.Compile(prog), nil, interp.EngineWalk)
		ctx := ipSerial.NewCtx()
		if err := ipSerial.Run(ctx); err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		serialUnits := ctx.Cost

		tr, err := collect(prog, nil, plan)
		if err != nil {
			t.Fatalf("%s: collect: %v", name, err)
		}
		traced := tr.SerialUnits() + tr.ParallelUnits()
		diff := float64(traced-serialUnits) / float64(serialUnits)
		if diff < 0 {
			diff = -diff
		}
		loops := hasLoop(tr)
		if !loops && traced != serialUnits || diff > 0.003 {
			t.Errorf("%s: traced %d units vs serial %d (%.3f%% off; parallel loops in the trace: %t)", name, traced, serialUnits, 100*diff, loops)
		}
	}
}

// TestTracePinned pins what the simulator reads of the three
// applications' traces at the tests' sizes: the phase count, the serial
// and parallel units, and the simulated time at 1 and 32 processors.
// The figures were recorded when both engines charged units and their
// traces were held equal; the tree walker, the one engine that charges
// them now, must still produce them. Collect refuses an interpreter of
// the compiled engine, which charges none.
func TestTracePinned(t *testing.T) {
	for _, tc := range []struct {
		name             string
		source           string
		phases           int
		serial, parallel int64
		t1, t32          float64
	}{
		{"graph", src.Graph, 2, 10291, 2838, 1848.3999999999953, 1351.4999999999993},
		{"barneshut", src.BarnesHut, 16, 339718, 8605486, 999911.2399995588, 69875.91999999882},
		{"water", src.Water, 20, 58144, 2951810, 330631.40000000986, 75998.41999999985},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, plan := setup(t, tc.source)
			tr, err := collect(prog, nil, plan)
			if err != nil {
				t.Fatalf("collect: %v", err)
			}
			if len(tr.Phases) != tc.phases || tr.SerialUnits() != tc.serial || tr.ParallelUnits() != tc.parallel {
				t.Errorf("%d phases, %d serial and %d parallel units, want %d, %d and %d",
					len(tr.Phases), tr.SerialUnits(), tr.ParallelUnits(), tc.phases, tc.serial, tc.parallel)
			}
			for _, pt := range []struct {
				procs int
				want  float64
			}{{1, tc.t1}, {32, tc.t32}} {
				// A relative 1e-12 absorbs a platform's fused multiply-adds.
				got := simdash.Simulate(tr, simdash.DefaultParams(pt.procs)).TimeMicros
				if math.Abs(got-pt.want) > 1e-12*pt.want {
					t.Errorf("simulated time at %d processors %v µs, want %v", pt.procs, got, pt.want)
				}
			}
		})
	}
	t.Run("compiled-refused", func(t *testing.T) {
		prog, plan := setup(t, src.Graph)
		if _, err := tracer.Collect(context.Background(), interp.New(interp.Compile(prog), nil), plan); err == nil || !strings.Contains(err.Error(), "tree-walker") {
			t.Errorf("Collect on a compiled-engine interpreter: %v, want a refusal", err)
		}
	})
}

// hasLoop reports whether the trace holds a parallel loop.
func hasLoop(tr *tracer.Trace) bool {
	var walk func(task *tracer.Task) bool
	walk = func(task *tracer.Task) bool {
		for _, ev := range task.Events {
			if ev.Kind == tracer.EvLoop || ev.Kind == tracer.EvSpawn && walk(ev.Child) {
				return true
			}
		}
		return false
	}
	for _, ph := range tr.Phases {
		if ph.Root != nil && walk(ph.Root) {
			return true
		}
	}
	return false
}

// TestCritEventsWellFormed: critical sections have positive duration
// and real object identities; loops contain no spawn events (mutex
// semantics).
func TestCritEventsWellFormed(t *testing.T) {
	prog, plan := setup(t, src.Water)
	tr, err := collect(prog, nil, plan)
	if err != nil {
		t.Fatal(err)
	}
	var crits, loops int
	var walk func(task *tracer.Task, inLoop bool)
	walk = func(task *tracer.Task, inLoop bool) {
		for _, e := range task.Events {
			switch e.Kind {
			case tracer.EvCrit:
				crits++
				if e.Obj == 0 {
					t.Fatal("crit with zero object id")
				}
				if e.Units < 0 {
					t.Fatal("negative crit duration")
				}
			case tracer.EvSpawn:
				if inLoop {
					t.Fatal("spawn inside a parallel-loop iteration (mutex semantics violated)")
				}
				walk(e.Child, inLoop)
			case tracer.EvLoop:
				loops++
				for _, it := range e.Iters {
					walk(it, true)
				}
			}
		}
	}
	for _, ph := range tr.Phases {
		if ph.Root != nil {
			walk(ph.Root, false)
		}
	}
	if crits == 0 {
		t.Error("no critical sections recorded for Water")
	}
	if loops != 10 { // 5 phases × 2 steps
		t.Errorf("parallel loops = %d, want 10", loops)
	}
}

// TestTracerDeterministic: collecting twice yields identical structure.
func TestTracerDeterministic(t *testing.T) {
	prog, plan := setup(t, src.BarnesHut)
	sig := func() (int, int64, int64) {
		tr, err := collect(prog, nil, plan)
		if err != nil {
			t.Fatal(err)
		}
		return len(tr.Phases), tr.SerialUnits(), tr.ParallelUnits()
	}
	p1, s1, u1 := sig()
	p2, s2, u2 := sig()
	if p1 != p2 || s1 != s2 || u1 != u2 {
		t.Errorf("nondeterministic trace: (%d,%d,%d) vs (%d,%d,%d)", p1, s1, u1, p2, s2, u2)
	}
}

// TestValueRootTraced: in each region-entry fixture the root — proven,
// guarded, speculative — returns a value main uses, so the tracer, like
// both runtimes, runs it as the serial code it is
// (codegen.Plan.RegionRoot) under the plan commuterun -mode simulate
// traces. Collect succeeds — entered as a region the value was lost and
// main failed on arithmetic over it — no phase is parallel, and output
// and heap are the serial run's.
func TestValueRootTraced(t *testing.T) {
	for _, fx := range src.EntryFixtures() {
		sys, err := commute.Load(fx.Name+".mc", fx.Source)
		if err != nil {
			t.Fatal(err)
		}
		prog, plan := sys.Prog, sys.Plan
		var want, got bytes.Buffer
		ipSerial := interp.New(sys.Code(), &want)
		if err := ipSerial.Run(ipSerial.NewCtx()); err != nil {
			t.Fatalf("%s: serial: %v", fx.Name, err)
		}
		nativegen.DumpInterp(&want, prog, ipSerial)

		ipTrace := interp.NewEngine(sys.Code(), &got, interp.EngineWalk)
		tr, err := tracer.Collect(context.Background(), ipTrace, plan)
		if err != nil {
			t.Fatalf("%s: collect: %v", fx.Name, err)
		}
		nativegen.DumpInterp(&got, prog, ipTrace)
		if got.String() != want.String() {
			t.Errorf("%s: traced output and state differ from the serial run's:\n got %.200q\nwant %.200q", fx.Name, got.String(), want.String())
		}
		if tr.ParallelUnits() != 0 || tr.SerialUnits() == 0 {
			t.Errorf("%s: %d parallel and %d serial units, want a serial trace", fx.Name, tr.ParallelUnits(), tr.SerialUnits())
		}
	}
}

// TestDispatchFixturesTraced: the tracer runs call sites by the plan's
// call rule, like both runtimes. On every in-region dispatch fixture
// Collect leaves the serial run's output and heap. In aux-loop's trace
// each counter::add task is one critical section holding all of its
// units: the auxiliary driver::probe ran as the serial version inside it.
// (Run with the caller's hooks armed, probe's loop became an EvLoop that
// ended the section early and left the write to total outside it.) The
// tracer is one goroutine and timing decides nothing: the trees are cut
// to depth 6.
func TestDispatchFixturesTraced(t *testing.T) {
	for _, fx := range src.DispatchFixtures() {
		prog, plan := setup(t, fx.AtDepth(6))
		code := interp.Compile(prog)
		var want, got bytes.Buffer
		ipSerial := interp.New(code, &want)
		if err := ipSerial.Run(ipSerial.NewCtx()); err != nil {
			t.Fatalf("%s: serial: %v", fx.Name, err)
		}
		nativegen.DumpInterp(&want, prog, ipSerial)

		ipTrace := interp.NewEngine(code, &got, interp.EngineWalk)
		tr, err := tracer.Collect(context.Background(), ipTrace, plan)
		if err != nil {
			t.Fatalf("%s: collect: %v", fx.Name, err)
		}
		nativegen.DumpInterp(&got, prog, ipTrace)
		if got.String() != want.String() {
			t.Errorf("%s: traced output and state differ from the serial run's:\n got %.40q\nwant %.40q", fx.Name, got.String(), want.String())
		}
		if fx.Name != "aux-loop" {
			continue
		}
		adds := 0
		var walk func(task *tracer.Task)
		walk = func(task *tracer.Task) {
			for _, ev := range task.Events {
				switch ev.Kind {
				case tracer.EvCrit:
					adds++
					if len(task.Events) != 1 {
						t.Fatalf("a counter::add task has %d events, want its one critical section", len(task.Events))
					}
				case tracer.EvSpawn:
					walk(ev.Child)
				case tracer.EvLoop:
					t.Fatal("a parallel loop in the trace: driver::probe is auxiliary")
				}
			}
		}
		for _, ph := range tr.Phases {
			if ph.Root != nil {
				walk(ph.Root)
			}
		}
		if adds != 127 {
			t.Errorf("%d counter::add tasks in the trace, want 127", adds)
		}
	}
}
