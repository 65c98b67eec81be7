package tracer_test

import (
	"bytes"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/core"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
	"commute/internal/interp"
	"commute/internal/nativegen"
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

// TestUnitConservation: the trace accounts for (essentially) the work
// the serial interpreter charges — partitioning the execution into
// phases and tasks neither creates nor loses cost. The two execution
// strategies differ slightly in loop-header bookkeeping (a parallel
// loop evaluates its bound once instead of re-evaluating the condition
// per iteration, and the dispatcher probes counted-loop headers), so
// we allow 1.5%.
func TestUnitConservation(t *testing.T) {
	for _, source := range []string{src.Graph, src.BarnesHut, src.Water} {
		prog, plan := setup(t, source)

		ipSerial := interp.New(prog, nil)
		ctx := ipSerial.NewCtx()
		if err := ipSerial.Run(ctx); err != nil {
			t.Fatalf("serial: %v", err)
		}
		serialUnits := ctx.Cost

		ipTrace := interp.New(prog, nil)
		tr, err := tracer.Collect(ipTrace, plan)
		if err != nil {
			t.Fatalf("collect: %v", err)
		}
		traced := tr.SerialUnits() + tr.ParallelUnits()
		diff := float64(traced-serialUnits) / float64(serialUnits)
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.015 {
			t.Errorf("units: traced %d vs serial %d (%.2f%% off)", traced, serialUnits, 100*diff)
		}
	}
}

// TestCritEventsWellFormed: critical sections have positive duration
// and real object identities; loops contain no spawn events (mutex
// semantics).
func TestCritEventsWellFormed(t *testing.T) {
	prog, plan := setup(t, src.Water)
	ip := interp.New(prog, nil)
	tr, err := tracer.Collect(ip, plan)
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
		ip := interp.New(prog, nil)
		tr, err := tracer.Collect(ip, plan)
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

// TestValueRootTraced: value-proven's ingest returns a value main adds
// up, so the tracer, like both runtimes, runs it as the serial code it is
// (codegen.Plan.RegionRoot). Collect succeeds — entered as a region the
// value was lost and main failed on arithmetic over it — no phase is
// parallel, and output and heap are the serial run's.
func TestValueRootTraced(t *testing.T) {
	fx := src.EntryFixtures()[0]
	prog, plan := setup(t, fx.Source)
	var want, got bytes.Buffer
	ipSerial := interp.New(prog, &want)
	if err := ipSerial.Run(ipSerial.NewCtx()); err != nil {
		t.Fatalf("serial: %v", err)
	}
	nativegen.DumpInterp(&want, prog, ipSerial)

	ipTrace := interp.New(prog, &got)
	tr, err := tracer.Collect(ipTrace, plan)
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
		var want, got bytes.Buffer
		ipSerial := interp.New(prog, &want)
		if err := ipSerial.Run(ipSerial.NewCtx()); err != nil {
			t.Fatalf("%s: serial: %v", fx.Name, err)
		}
		nativegen.DumpInterp(&want, prog, ipSerial)

		ipTrace := interp.New(prog, &got)
		tr, err := tracer.Collect(ipTrace, plan)
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
