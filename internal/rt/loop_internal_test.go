package rt

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"commute/internal/codegen"
	"commute/internal/core"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
	"commute/internal/interp"
)

// twoLoopsApp: twice runs two parallel loops back to back; fan runs it
// as a spawned task. Entering the second loop proves the first joined.
const twoLoopsApp = `
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
  void twice(int r);
  void fan(int r);
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

void driver::twice(int r) {
  int i;
  int j;
  for (i = 0; i < N; i += 1) {
    c[i]->add(r + i);
  }
  for (j = 0; j < N; j += 1) {
    c[j]->add(r);
  }
}

void driver::fan(int r) {
  this->twice(r);
}

void main() {
  D.init();
  D.%s(3);
}
`

// TestLoopJoinsWithoutStarvedHelpers: a parallel loop's helpers are only
// offers. With every worker that could take them stuck in a long task,
// the caller runs the whole loop itself and joins at once — seen here as
// the second loop starting while the workers are still stuck — both when
// the caller is the region root (external to the pool) and when it is a
// pool worker running a spawned task.
func TestLoopJoinsWithoutStarvedHelpers(t *testing.T) {
	cases := []struct {
		entry string
		stuck int // of 2 workers
	}{
		{"twice", 2}, // loops at the region root: no worker is free
		{"fan", 1},   // loops inside a task on the one free worker
	}
	for _, tc := range cases {
		f, err := parser.Parse("app.mc", fmt.Sprintf(twoLoopsApp, tc.entry))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := types.Check(f)
		if err != nil {
			t.Fatal(err)
		}
		plan := codegen.Build(core.New(prog))
		for _, mp := range plan.Methods {
			mp.Work = 0 // a tiny program: open its regions all the same
		}
		r := New(interp.New(interp.Compile(prog), nil), plan, 2)

		// Occupy the workers before the run starts its first region.
		pool := r.regionPool()
		release := make(chan struct{})
		var started atomic.Int64
		for i := 0; i < tc.stuck; i++ {
			pool.Spawn(pool.External(), "", func(*worker) {
				started.Add(1)
				<-release
			})
		}
		deadline := time.Now().Add(10 * time.Second)
		for started.Load() < int64(tc.stuck) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}

		done := make(chan error, 1)
		go func() { done <- r.Run() }()
		for atomic.LoadInt64(&r.Stats.ParallelLoops) < 2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		loops := atomic.LoadInt64(&r.Stats.ParallelLoops)
		close(release)
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", tc.entry, err)
		}
		if loops < 2 {
			t.Errorf("%s: the first loop's join waited for helpers no worker could run", tc.entry)
		}
		if got := atomic.LoadInt64(&r.Stats.Iterations); got != 16 {
			t.Errorf("%s: %d iterations, want 16", tc.entry, got)
		}
		cs := r.IP.Globals["D"].Slots[r.IP.Prog.Classes["driver"].FieldByName("c").Slot].Array()
		for i, cv := range cs.Elems {
			got := cv.Object().Slots[r.IP.Prog.Classes["counter"].FieldByName("total").Slot].Int()
			if want := int64(3 + i + 3); got != want {
				t.Errorf("%s: c[%d].total = %d, want %d", tc.entry, i, got, want)
			}
		}
	}
}
