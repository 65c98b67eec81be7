package rt_test

// Tests and benchmarks of the region life cycle on the one pool a
// Runtime keeps: what a region costs once the run is warm (allocation
// pins), that the event counters did not move, and that nothing outlives
// RunContext on any exit path.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/interp"
	"commute/internal/oracle"
	"commute/internal/rt"
	"commute/rtkit"
)

// fineProgram is a driver loop entering one tiny region per round: the
// four run-fine programs of e2ebench plus a proven extent.
type fineProgram struct {
	name string
	code *interp.Code
	plan *codegen.Plan
	spec rt.SpecMode
	// perRound is what one round adds to the counters the analysis and
	// the program decide (scheduling decides none of them).
	perRound rt.Stats
}

// provenSteps is a proven extent of the same shape as condhash's ingest:
// a parallel loop of locked accumulations, then two spawned ones.
const provenSteps = `
const int N = 8;

class counter {
public:
  int total;
  void add(int v);
};

class driver {
public:
  counter *c[N];
  void init();
  void step(int r);
};

driver D;

void counter::add(int v) {
  total = total + v;
}

void driver::init() {
  int i;
  for (i = 0; i < N; i += 1) {
    c[i] = new counter;
  }
}

void driver::step(int r) {
  int i;
  for (i = 0; i < N; i += 1) {
    c[i]->add(r + i);
  }
  c[0]->add(r);
  c[1]->add(r * 2);
}

void main() {
  D.init();
  D.step(0);
}
`

// finePrograms are the programs with their work estimates cleared, so
// that every round's region opens; asBuilt keeps the estimates, and the
// granularity cutoff declines them all (perRound does not apply).
func finePrograms(t testing.TB, rounds int, asBuilt bool) []fineProgram {
	mk := func(name, source string, spec rt.SpecMode, perRound rt.Stats) fineProgram {
		sys := oracle.Load(t, name+".mc", source)
		if !asBuilt {
			oracle.ClearWork(sys)
		}
		return fineProgram{name, sys.Code(), sys.Plan, spec, perRound}
	}
	return []fineProgram{
		mk("proven", oracle.Repeat(provenSteps, "D.init();", "D.step(r);", rounds), rt.SpecOff,
			rt.Stats{Regions: 1, ParallelLoops: 1, Iterations: 8, Tasks: 2, LockAcquires: 10}),
		mk("guard-true", src.CondHashBase+src.CondHashMain(0, rounds), rt.SpecOff,
			rt.Stats{Regions: 1, ParallelLoops: 1, Iterations: 8, Tasks: 2, LockAcquires: 10, GuardParallel: 1}),
		mk("guard-false", src.CondHashBase+src.CondHashMain(3, rounds), rt.SpecOff,
			rt.Stats{GuardSerial: 1}),
		mk("spec-commit", oracle.Repeat(src.SpecDisjoint, "T.init();", "T.fill();", rounds), rt.SpecForce,
			rt.Stats{Regions: 1, ParallelLoops: 1, Iterations: 16, SpeculativeRegions: 1, SpeculationCommits: 1}),
		mk("spec-abort", oracle.Repeat(src.SpecConflict, "D.init();", "D.run();", rounds), rt.SpecForce,
			rt.Stats{Regions: 1, Tasks: 2, SpeculativeRegions: 1, SpeculationAborts: 1}),
	}
}

func (p fineProgram) runtime(workers int) *rt.Runtime {
	r := rt.New(interp.New(p.code, nil), p.plan, workers)
	r.Conditional = true
	r.Speculate = p.spec
	return r
}

// BenchmarkRegionEntry runs 512 tiny regions per op; against the serial
// sub-benchmark the difference is what the regions themselves cost.
func BenchmarkRegionEntry(b *testing.B) {
	for _, p := range finePrograms(b, 512, false) {
		for _, workers := range []int{0, 1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", p.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					if workers == 0 {
						ip := interp.New(p.code, nil)
						err = ip.Run(ip.NewCtx())
					} else {
						err = p.runtime(workers).Run()
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRegionDeclined is BenchmarkRegionEntry on the plans as built:
// every one of the 512 regions per op is under regionEntryCost and runs
// its serial version. Against BenchmarkRegionEntry's workers=0 leg the
// difference is what declining costs; against its other legs, what it
// saves.
func BenchmarkRegionDeclined(b *testing.B) {
	for _, p := range finePrograms(b, 512, true) {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", p.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r := p.runtime(workers)
					if err := r.Run(); err != nil {
						b.Fatal(err)
					}
					if r.Stats.RegionsDeclined != 512 {
						b.Fatalf("%d regions declined, want 512", r.Stats.RegionsDeclined)
					}
				}
			})
		}
	}
}

// BenchmarkCostUnit reports what the compiled engine takes to retire one
// DASH cost unit on the tiny-region programs run serially: with the cost
// of a region entry (BenchmarkRegionEntry), the number regionEntryCost
// is derived from. Compiled code charges no units, so one tree-walker run
// per program counts them and the compiled runs are timed.
func BenchmarkCostUnit(b *testing.B) {
	for _, p := range finePrograms(b, 512, false) {
		b.Run(p.name, func(b *testing.B) {
			walk := interp.NewEngine(p.code, nil, interp.EngineWalk)
			wctx := walk.NewCtx()
			if err := walk.Run(wctx); err != nil {
				b.Fatal(err)
			}
			units := wctx.Cost
			if units == 0 {
				b.Fatal("the walker charged no units")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ip := interp.New(p.code, nil)
				if err := ip.Run(ip.NewCtx()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(units*int64(b.N)), "ns/unit")
			b.ReportMetric(float64(units), "units/op")
		})
	}
}

// TestRegionCounters pins the exact event counters of the tiny-region
// programs: rounds × the per-round figures, whatever the worker count —
// pooling and recycling must not move them.
func TestRegionCounters(t *testing.T) {
	const rounds = 12
	for _, p := range finePrograms(t, rounds, false) {
		for _, workers := range []int{1, 2, 4} {
			r := p.runtime(workers)
			if err := r.Run(); err != nil {
				t.Fatalf("%s workers=%d: %v", p.name, workers, err)
			}
			got, per := r.Stats, p.perRound
			got.Chunks, got.Steals, got.LocalPops = 0, 0, 0 // scheduling's to decide
			want := rt.Stats{
				Regions: rounds * per.Regions, ParallelLoops: rounds * per.ParallelLoops,
				Iterations: rounds * per.Iterations, Tasks: rounds * per.Tasks,
				LockAcquires:  rounds * per.LockAcquires,
				GuardParallel: rounds * per.GuardParallel, GuardSerial: rounds * per.GuardSerial,
				SpeculativeRegions: rounds * per.SpeculativeRegions,
				SpeculationCommits: rounds * per.SpeculationCommits,
				SpeculationAborts:  rounds * per.SpeculationAborts,
			}
			if got != want {
				t.Errorf("%s workers=%d:\n got %+v\nwant %+v", p.name, workers, got, want)
			}
		}
	}
}

// TestSteadyStateRegionAllocs pins what a region allocates once the run
// is warm: the difference between a long and a short run of the same
// program, over the extra regions. Every kind of region is at zero; the
// bound leaves room for a sync.Pool refill after a GC and nothing else.
func TestSteadyStateRegionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	const short, long = 64, 64 + 256
	shortRuns, longRuns := finePrograms(t, short, false), finePrograms(t, long, false)
	for i, p := range shortRuns {
		for _, workers := range []int{1, 2} {
			measure := func(p fineProgram) float64 {
				return testing.AllocsPerRun(5, func() {
					if err := p.runtime(workers).Run(); err != nil {
						t.Fatal(err)
					}
				})
			}
			perRegion := (measure(longRuns[i]) - measure(p)) / (long - short)
			if perRegion > 0.1 {
				t.Errorf("%s workers=%d: %.2f allocations per steady-state region, want 0", p.name, workers, perRegion)
			}
		}
	}
}

// settled waits for the goroutine count to come back to base: the pool's
// workers are told to exit before RunContext returns and do so on their
// own time.
func settled(base int) (int, bool) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n, n <= base
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoGoroutinePerRegion: a 1000-region run never holds more than the
// pool's workers beyond what was there before it — no goroutine per
// region, per loop or per task — and gives them all back. A sampling
// goroutine watches the count for the whole run.
func TestNoGoroutinePerRegion(t *testing.T) {
	const workers = 3
	r := newRuntime(t, src.CondHashBase+src.CondHashMain(0, 1000), workers)
	r.Conditional = true
	base := runtime.NumGoroutine()
	var stop atomic.Bool
	peak := make(chan int)
	go func() {
		max := 0
		for !stop.Load() {
			if n := runtime.NumGoroutine(); n > max {
				max = n
			}
			runtime.Gosched()
		}
		peak <- max
	}()
	err := r.Run()
	stop.Store(true)
	max := <-peak
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Regions != 1000 || r.Stats.ParallelLoops != 1000 || r.Stats.Tasks != 2000 {
		t.Fatalf("ran %d regions, %d loops, %d tasks; want 1000, 1000, 2000", r.Stats.Regions, r.Stats.ParallelLoops, r.Stats.Tasks)
	}
	if limit := base + 1 + workers; max > limit {
		t.Errorf("%d goroutines during the run, want ≤ %d (baseline %d + sampler + %d workers)", max, limit, base, workers)
	}
	if n, ok := settled(base); !ok {
		t.Errorf("%d goroutines after the run, baseline %d", n, base)
	}
}

// TestPoolLifetime: whichever way RunContext returns, the pool it
// started is gone afterwards.
func TestPoolLifetime(t *testing.T) {
	divZero := spawnShape(`sum = sum + v / d; if (next != NULL) { next->work(v + 1); }`)
	cases := []struct {
		name, source string
		setup        func(r *rt.Runtime) (context.Context, context.CancelFunc)
		check        func(t *testing.T, r *rt.Runtime, err error)
	}{
		{name: "success", source: src.Graph,
			check: func(t *testing.T, r *rt.Runtime, err error) {
				if err != nil || r.Stats.Regions == 0 {
					t.Errorf("err = %v after %d regions", err, r.Stats.Regions)
				}
			}},
		{name: "user runtime error", source: divZero,
			check: func(t *testing.T, r *rt.Runtime, err error) {
				var re *interp.RuntimeError
				if !errors.As(err, &re) {
					t.Errorf("err = %v, want a RuntimeError", err)
				}
			}},
		{name: "injected task panic", source: src.Graph,
			setup: func(r *rt.Runtime) (context.Context, context.CancelFunc) {
				r.Faults = &rt.FaultPlan{PanicOnSpawn: 3}
				return nil, nil
			},
			check: func(t *testing.T, r *rt.Runtime, err error) {
				var te *rt.TaskError
				if !errors.As(err, &te) {
					t.Errorf("err = %v, want a TaskError", err)
				}
			}},
		{name: "injected cancellation", source: src.Graph,
			setup: func(r *rt.Runtime) (context.Context, context.CancelFunc) {
				r.Faults = &rt.FaultPlan{CancelOnSpawn: 2}
				return nil, nil
			},
			check: func(t *testing.T, r *rt.Runtime, err error) {
				if !errors.Is(err, rt.ErrInjectedCancel) {
					t.Errorf("err = %v, want ErrInjectedCancel", err)
				}
			}},
		{name: "caller cancel mid-region", source: infiniteSpawnApp,
			setup: func(r *rt.Runtime) (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					// Mid-region: the one region has tasks in flight.
					for atomic.LoadInt64(&r.Stats.Tasks) < 100 {
						time.Sleep(time.Millisecond)
					}
					cancel()
				}()
				return ctx, cancel
			},
			check: func(t *testing.T, r *rt.Runtime, err error) {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("err = %v, want context.Canceled", err)
				}
			}},
		{name: "timeout", source: infiniteSpawnApp,
			setup: func(r *rt.Runtime) (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 100*time.Millisecond)
			},
			check: func(t *testing.T, r *rt.Runtime, err error) {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("err = %v, want context.DeadlineExceeded", err)
				}
			}},
	}
	for _, tc := range cases {
		// The name carries the rtkit mode the runtime's pool runs in.
		t.Run(fmt.Sprintf("%s/sched=%d", tc.name, rtkit.Stealing), func(t *testing.T) {
			r := newRuntime(t, tc.source, 4)
			base := runtime.NumGoroutine()
			ctx := context.Background()
			if tc.setup != nil {
				if c, cancel := tc.setup(r); c != nil {
					ctx = c
					defer cancel()
				}
			}
			err := r.RunContext(ctx)
			tc.check(t, r, err)
			if n, ok := settled(base); !ok {
				t.Errorf("%d goroutines after RunContext returned, baseline %d", n, base)
			}
		})
	}
}

// spawnArgsApp spawns six tasks from consecutive call sites, each with
// its own argument for its own object. The caller's argument slice is
// recycled from one call to the next, so a task that kept the caller's
// slice instead of its copy would add a sibling's value.
const spawnArgsApp = `
class box {
public:
  int val;
  void put(int v);
};

class driver {
public:
  box *a; box *b; box *c; box *d; box *e; box *f;
  void init();
  void scatter(int r);
};

driver D;

void box::put(int v) {
  val = val + v;
}

void driver::init() {
  a = new box; b = new box; c = new box; d = new box; e = new box; f = new box;
}

void driver::scatter(int r) {
  a->put(r + 100000);
  b->put(r + 200000);
  c->put(r + 300000);
  d->put(r + 400000);
  e->put(r + 500000);
  f->put(r + 600000);
}

void main() {
  int r;
  D.init();
  for (r = 0; r < 200; r += 1) {
    D.scatter(r);
  }
}
`

// TestSpawnedTasksKeepTheirArguments (run under -race): the Invoke hook's
// argument slice goes back to the caller's scratch when the hook returns;
// ActionSpawn must have copied it for the child.
func TestSpawnedTasksKeepTheirArguments(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := newRuntime(t, spawnArgsApp, workers)
		prog, ip := r.IP.Prog, r.IP
		if mp := r.Plan.Methods[prog.MethodByFullName("driver::scatter")]; !mp.Parallel || len(mp.Site) != 6 {
			t.Fatalf("scatter plan = %+v, want a parallel method with six sites", mp)
		}
		// Skew task starts so children outlive the caller's next calls.
		r.Faults = &rt.FaultPlan{Seed: 1, DelayOnSpawn: 20 * time.Microsecond, DelayRate: 0.05}
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if r.Stats.Tasks != 6*200 {
			t.Fatalf("Tasks = %d, want %d", r.Stats.Tasks, 6*200)
		}
		d := ip.Globals["D"]
		for i, name := range []string{"a", "b", "c", "d", "e", "f"} {
			box := d.Slots[ip.Prog.Classes["driver"].FieldByName(name).Slot].Object()
			got := box.Slots[ip.Prog.Classes["box"].FieldByName("val").Slot].Int()
			if want := int64(200*(i+1)*100000 + 199*200/2); got != want {
				t.Errorf("workers=%d: %s.val = %d, want %d (a task saw another's argument)", workers, name, got, want)
			}
		}
	}
}
