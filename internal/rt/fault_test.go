package rt_test

// Fault-injection suite for the hardened runtime: injected panics at
// the spawn / chunk / lock boundaries surface as structured TaskError
// values (the process survives), deadlines and cancellation drain the
// pools promptly, and a faulted region fails the run instead of being
// re-run. Run under -race.

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"commute/internal/apps/src"
	"commute/internal/interp"
	"commute/internal/nativegen"
	"commute/internal/oracle"
	"commute/internal/rt"
)

// loopApp exercises the GSS/mutex path: accumulate runs a parallel
// loop whose iterations call cell::add as mutex versions under
// per-object locks.
const loopApp = `
const int N = 64;

class cell {
public:
  int sum;
  void add(int v);
};

class grid {
public:
  cell *cells[N];
  int n;
  void init(int k);
  void accumulate();
};

grid G;

void cell::add(int v) {
  sum = sum + v;
}

void grid::init(int k) {
  int i;
  n = k;
  for (i = 0; i < k; i += 1) {
    cells[i] = new cell;
    cells[i]->sum = 0;
  }
}

void grid::accumulate() {
  int i;
  for (i = 0; i < n; i += 1) {
    cells[i]->add(i);
  }
}

void main() {
  G.init(64);
  G.accumulate();
}
`

// infiniteSpawnApp spawns tasks forever: each work task spawns its
// successor unconditionally, so only cancellation can end the region.
const infiniteSpawnApp = `
class node {
public:
  int sum;
  void work(int v);
};

class driver {
public:
  node *root;
  void init();
  void launch();
};

driver D;

void node::work(int v) {
  sum = sum + 1;
  this->work(v + 1);
}

void driver::init() {
  root = new node;
}

void driver::launch() {
  root->work(0);
}

void main() {
  D.init();
  D.launch();
}
`

// infiniteLoopApp never terminates inside main's statement loop.
const infiniteLoopApp = `
void main() {
  int x;
  x = 0;
  while (x < 1) {
    x = x * 1;
  }
}
`

// newRuntime runs source under the plan every binary runs, its work
// estimates cleared so that every root opens its region however small
// the program is; what the program prints is kept for state.
func newRuntime(t testing.TB, source string, workers int) *rt.Runtime {
	t.Helper()
	sys := oracle.ClearWork(oracle.Load(t, "app.mc", source))
	return rt.New(interp.New(sys.Code(), new(bytes.Buffer)), sys.Plan, workers)
}

// state is what r's program printed, then its final state: the bytes
// oracle.Reference returns for the serial walker.
func state(r *rt.Runtime) string {
	out := r.IP.Out.(*bytes.Buffer)
	nativegen.DumpInterp(out, r.IP.Prog, r.IP)
	return out.String()
}

// TestInjectedSpawnPanicSurfacesAsTaskError: a panic injected at task
// start is isolated into a TaskError carrying the method name and the
// injected fault; the process survives and the run returns an error.
func TestInjectedSpawnPanicSurfacesAsTaskError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		r := newRuntime(t, src.Graph, workers)
		r.Faults = &rt.FaultPlan{PanicOnSpawn: 1}
		err := r.Run()
		if err == nil {
			t.Fatalf("workers=%d: injected spawn panic produced no error", workers)
		}
		var te *rt.TaskError
		if !errors.As(err, &te) {
			t.Fatalf("workers=%d: err = %T %v, want *rt.TaskError", workers, err, err)
		}
		if te.Origin != "task" {
			t.Errorf("workers=%d: origin = %q, want %q", workers, te.Origin, "task")
		}
		if te.Method != "graph::visit" {
			t.Errorf("workers=%d: method = %q, want graph::visit", workers, te.Method)
		}
		if te.Stack == "" {
			t.Errorf("workers=%d: TaskError without a captured stack", workers)
		}
		var inj rt.InjectedFault
		if !errors.As(err, &inj) || inj.Point != "spawn" {
			t.Errorf("workers=%d: injected fault not unwrapped: %v", workers, err)
		}
		if r.Stats.TaskPanics == 0 {
			t.Errorf("workers=%d: Stats.TaskPanics = 0", workers)
		}
	}
}

// TestInjectedChunkPanicSurfacesAsTaskError: a panic injected at a GSS
// chunk claim is isolated by the loop worker's recover.
func TestInjectedChunkPanicSurfacesAsTaskError(t *testing.T) {
	r := newRuntime(t, loopApp, 4)
	r.Faults = &rt.FaultPlan{PanicOnChunk: 1}
	err := r.Run()
	var te *rt.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T %v, want *rt.TaskError", err, err)
	}
	if te.Origin != "loop" {
		t.Errorf("origin = %q, want %q", te.Origin, "loop")
	}
	var inj rt.InjectedFault
	if !errors.As(err, &inj) || inj.Point != "chunk" {
		t.Errorf("injected chunk fault not unwrapped: %v", err)
	}
}

// TestInjectedLockPanicSurfacesAsTaskError: a panic injected at a lock
// acquisition is isolated, and no lock is left stranded (the run
// drains rather than deadlocking).
func TestInjectedLockPanicSurfacesAsTaskError(t *testing.T) {
	r := newRuntime(t, loopApp, 4)
	r.Faults = &rt.FaultPlan{PanicOnLock: 3}
	err := r.Run()
	var te *rt.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T %v, want *rt.TaskError", err, err)
	}
	var inj rt.InjectedFault
	if !errors.As(err, &inj) || inj.Point != "lock" {
		t.Errorf("injected lock fault not unwrapped: %v", err)
	}
}

// TestDeadlineCancelsInfiniteSerialProgram: a deadline cancels a
// deliberately infinite statement loop within 2× the deadline.
func TestDeadlineCancelsInfiniteSerialProgram(t *testing.T) {
	const deadline = 500 * time.Millisecond
	r := newRuntime(t, infiniteLoopApp, 4)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	err := r.RunContext(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*deadline {
		t.Errorf("cancellation took %v, want ≤ %v", elapsed, 2*deadline)
	}
}

// TestDeadlineCancelsInfiniteSpawnProgram: a deadline also stops a
// program that spawns tasks forever — the pool drains skipped tasks
// after cancellation instead of hanging in wait.
func TestDeadlineCancelsInfiniteSpawnProgram(t *testing.T) {
	const deadline = 500 * time.Millisecond
	r := newRuntime(t, infiniteSpawnApp, 4)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	err := r.RunContext(ctx)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("infinite spawn chain terminated without error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*deadline {
		t.Errorf("cancellation took %v, want ≤ %v", elapsed, 2*deadline)
	}
}

// TestExternalCancelStopsRun: caller-side cancellation propagates its
// cause through the runtime.
func TestExternalCancelStopsRun(t *testing.T) {
	cause := errors.New("operator abort")
	r := newRuntime(t, infiniteLoopApp, 2)
	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel(cause)
	}()
	err := r.RunContext(ctx)
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the cancellation cause", err)
	}
}

// TestRunStepBudget: the runtime-wide step budget stops a runaway
// program deterministically, without a wall clock.
func TestRunStepBudget(t *testing.T) {
	r := newRuntime(t, infiniteLoopApp, 2)
	r.MaxSteps = 100000
	err := r.Run()
	if err == nil {
		t.Fatal("infinite loop ran to completion under a step budget")
	}
	var re *interp.RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T %v, want *interp.RuntimeError", err, err)
	}
}

// graphRunFailsLoudly runs the graph traversal under faults at each
// worker count and requires the run to fail with an error matching
// isWant, after one region entry, with the traversal left unfinished: a
// proven region that faults is not re-run, because effects its tasks
// already applied could land twice.
func graphRunFailsLoudly(t *testing.T, faults func() *rt.FaultPlan, isWant func(error) bool) {
	t.Helper()
	for _, workers := range []int{1, 2, 4} {
		r := newRuntime(t, src.Graph, workers)
		r.Faults = faults()
		err := r.Run()
		if !isWant(err) {
			t.Errorf("workers=%d: err = %T %v", workers, err, err)
		}
		if r.Stats.Regions != 1 {
			t.Errorf("workers=%d: Regions = %d, want 1", workers, r.Stats.Regions)
		}
		if state(r) == oracle.Reference(t, r.IP.Prog) {
			t.Errorf("workers=%d: the traversal finished after the fault: the region was re-run", workers)
		}
	}
}

// TestInjectedPanicInProvenRegionFailsLoudly: a panic injected at the
// first task start fails the run with a *rt.TaskError, with no rerun.
func TestInjectedPanicInProvenRegionFailsLoudly(t *testing.T) {
	graphRunFailsLoudly(t, func() *rt.FaultPlan { return &rt.FaultPlan{PanicOnSpawn: 1} }, func(err error) bool {
		var te *rt.TaskError
		return errors.As(err, &te)
	})
}

// TestInjectedCancelInProvenRegionFailsLoudly: a cancellation injected
// below a still-live caller fails the run with ErrInjectedCancel, with no
// rerun.
func TestInjectedCancelInProvenRegionFailsLoudly(t *testing.T) {
	graphRunFailsLoudly(t, func() *rt.FaultPlan { return &rt.FaultPlan{CancelOnSpawn: 1} }, func(err error) bool {
		return errors.Is(err, rt.ErrInjectedCancel)
	})
}

// TestNoFallbackForUserErrors: a user-program semantic error inside a
// region fails the run with its RuntimeError, after one region entry.
func TestNoFallbackForUserErrors(t *testing.T) {
	const divApp = `
class cell {
public:
  int sum;
  int d;
  void add(int v);
};
class grid {
public:
  cell *cells[8];
  int n;
  void init(int k);
  void accumulate();
};
grid G;
void cell::add(int v) {
  sum = sum + v / d;
}
void grid::init(int k) {
  int i;
  n = k;
  for (i = 0; i < k; i += 1) {
    cells[i] = new cell;
  }
}
void grid::accumulate() {
  int i;
  for (i = 0; i < n; i += 1) {
    cells[i]->add(i);
  }
}
void main() {
  G.init(8);
  G.accumulate();
}
`
	r := newRuntime(t, divApp, 4)
	err := r.Run()
	if err == nil {
		t.Fatal("division by zero produced no error")
	}
	var re *interp.RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T %v, want *interp.RuntimeError", err, err)
	}
	if r.Stats.Regions != 1 {
		t.Errorf("Regions = %d, want 1", r.Stats.Regions)
	}
}

// TestNoFallbackWhenCallerTimedOut: the caller's deadline ends the run
// with context.DeadlineExceeded — the runtime burns no more time
// re-running anything after the caller walked away.
func TestNoFallbackWhenCallerTimedOut(t *testing.T) {
	const deadline = 200 * time.Millisecond
	r := newRuntime(t, infiniteSpawnApp, 2)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	err := r.RunContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*deadline {
		t.Errorf("run took %v, want ≤ %v", elapsed, 2*deadline)
	}
	if r.Stats.Regions != 1 {
		t.Errorf("Regions = %d, want 1", r.Stats.Regions)
	}
}

// TestDelayInjectionPreservesResults: injected scheduling skew at task
// start perturbs interleavings but never the final state.
func TestDelayInjectionPreservesResults(t *testing.T) {
	r := newRuntime(t, src.Graph, 8)
	r.Faults = &rt.FaultPlan{Seed: 42, DelayOnSpawn: 200 * time.Microsecond, DelayRate: 0.5}
	if err := r.Run(); err != nil {
		t.Fatalf("delayed run failed: %v", err)
	}
	if got, want := state(r), oracle.Reference(t, r.IP.Prog); got != want {
		t.Errorf("state after delayed spawns:\n got %.200q\nwant %.200q", got, want)
	}
}

// TestPanicRateEventuallyFires: a probabilistic plan with rate 1 fires
// on the first task, proving the seeded path is exercised.
func TestPanicRateEventuallyFires(t *testing.T) {
	r := newRuntime(t, src.Graph, 4)
	r.Faults = &rt.FaultPlan{Seed: 7, PanicRate: 1.0}
	err := r.Run()
	var te *rt.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T %v, want *rt.TaskError", err, err)
	}
}
