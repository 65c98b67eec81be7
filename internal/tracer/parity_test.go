package tracer_test

import (
	"context"
	"io"
	"strings"
	"testing"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/interp"
	"commute/internal/oracle"
	"commute/internal/tracer"
)

// TestTraceEntersWhatRuns: the simulator's trace (System.Trace) and the
// interpreter runtime read one plan under one entry rule. With the work
// estimates cleared, so that neither side declines a root, every shipped
// application — condhash0 and the two speculation demonstrators among
// them — opens as many regions in the trace as the runtime does under the
// zero run policy at one worker. Water's accumulations run on replicas in
// both: its trace reduces replicas at some region's join and holds no
// critical section on FBank or Sums.
func TestTraceEntersWhatRuns(t *testing.T) {
	for _, name := range strings.Split(src.AppNames(), ", ") {
		_, source, _ := src.App(name)
		sys := oracle.ClearWork(oracle.Load(t, name+".mc", source))
		tr, err := sys.Trace(context.Background())
		if err != nil {
			t.Fatalf("%s: trace: %v", name, err)
		}
		_, st, err := sys.RunParallelOpts(context.Background(), commute.RunOptions{Workers: 1}, io.Discard)
		if err != nil {
			t.Fatalf("%s: parallel run: %v", name, err)
		}
		regions, reduced := 0, 0
		for _, ph := range tr.Phases {
			if ph.Root != nil {
				regions++
				reduced += ph.ReduceObjects
			}
		}
		if int64(regions) != st.Regions {
			t.Errorf("%s: the trace opens %d regions, the runtime %d", name, regions, st.Regions)
		}
		if name != "water" {
			continue
		}
		if reduced == 0 {
			t.Errorf("water: no region of the trace reduces a replica")
		}
		ip := interp.NewEngine(sys.Prog, nil, interp.EngineWalk)
		tr, err = tracer.Collect(context.Background(), ip, sys.Plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, global := range []string{"FBank", "Sums"} {
			if n := crits(tr, ip.Globals[global].ID); n != 0 {
				t.Errorf("water: the trace holds %d critical sections on %s", n, global)
			}
		}
	}
}

// crits counts the critical sections on object obj in the regions of tr.
func crits(tr *tracer.Trace, obj int64) int {
	n := 0
	var walk func(*tracer.Task)
	walk = func(task *tracer.Task) {
		for _, e := range task.Events {
			switch e.Kind {
			case tracer.EvCrit:
				if e.Obj == obj {
					n++
				}
			case tracer.EvSpawn:
				walk(e.Child)
			case tracer.EvLoop:
				for _, it := range e.Iters {
					walk(it)
				}
			}
		}
	}
	for _, ph := range tr.Phases {
		if ph.Root != nil {
			walk(ph.Root)
		}
	}
	return n
}
