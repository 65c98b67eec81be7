package rt_test

// Crash corpus: mini-C++ programs that hit every interpreter failure
// class — out-of-bounds indexing, division by zero, NULL dereference,
// unbounded recursion, infinite loops — embedded in three execution
// shapes (plain serial code, a spawned task chain, a parallel loop
// running mutex versions). Every combination must return an error:
// never a process crash, never a hang.

import (
	"context"
	"strings"
	"testing"
	"time"

	"commute/internal/interp"
	"commute/internal/rt"
)

// serialShape places the fault in a method invoked once from main.
func serialShape(fault string) string {
	return `
class box {
public:
  int sum;
  int d;
  int a[4];
  box *next;
  void f(int v);
};
box B;
void box::f(int v) {
  ` + fault + `
}
void main() {
  B.f(5);
}
`
}

// spawnShape places the fault in a recursive method whose calls the
// plan turns into spawned tasks (the §2 traversal pattern).
func spawnShape(fault string) string {
	return `
const int N = 16;
class node {
public:
  int sum;
  int d;
  int a[4];
  node *next;
  void work(int v);
};
class driver {
public:
  node *nodes[N];
  int n;
  void build(int k);
  void launch();
};
driver D;
void node::work(int v) {
  ` + fault + `
}
void driver::build(int k) {
  int i;
  n = k;
  for (i = 0; i < k; i += 1) {
    nodes[i] = new node;
  }
  for (i = 0; i < k - 1; i += 1) {
    nodes[i]->next = nodes[i + 1];
  }
}
void driver::launch() {
  nodes[0]->work(0);
}
void main() {
  D.build(16);
  D.launch();
}
`
}

// loopShape places the fault in a method that parallel-loop iterations
// execute as mutex versions under per-object locks.
func loopShape(fault string) string {
	return `
const int N = 32;
class cell {
public:
  int sum;
  int d;
  int a[4];
  cell *next;
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
  ` + fault + `
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
  G.init(32);
  G.accumulate();
}
`
}

// crashCorpus maps each failure class to its fault bodies per shape.
// The recursion and infinite-loop entries never terminate on their
// own; the harness bounds every run with a step budget and a wall-
// clock deadline, and any error counts as the correct outcome.
var crashCorpus = []struct {
	name                string
	serial, spawn, loop string
	wantSerial          string // substring expected in the serial-shape error
}{
	{
		name:       "out-of-bounds-index",
		serial:     `sum = sum + a[v];`,
		spawn:      `sum = sum + a[v]; if (next != NULL) { next->work(v + 1); }`,
		loop:       `sum = sum + a[v];`,
		wantSerial: "out of range",
	},
	{
		name:       "division-by-zero",
		serial:     `sum = sum + v / d;`,
		spawn:      `sum = sum + v / d; if (next != NULL) { next->work(v + 1); }`,
		loop:       `sum = sum + v / d;`,
		wantSerial: "division by zero",
	},
	{
		name:       "null-deref",
		serial:     `next->f(v);`,
		spawn:      `sum = sum + v; next->work(v + 1);`,
		loop:       `next->add(v);`,
		wantSerial: "NULL",
	},
	{
		name:       "deep-recursion",
		serial:     `sum = sum + 1; this->f(v);`,
		spawn:      `sum = sum + 1; this->work(v + 1);`,
		loop:       `sum = sum + 1; this->add(v);`,
		wantSerial: "recursion depth",
	},
	{
		name:       "infinite-loop",
		serial:     `int x; x = 0; while (x < 1) { sum = sum + 1; }`,
		spawn:      `int x; x = 0; while (x < 1) { sum = sum + 1; }`,
		loop:       `int x; x = 0; while (x < 1) { sum = sum + 1; }`,
		wantSerial: "",
	},
}

// corpusBudget bounds every corpus run: a deterministic statement
// budget (fast) backed by a wall-clock deadline (hang backstop).
const (
	corpusMaxSteps = 500000
	corpusDeadline = 20 * time.Second
)

func TestCrashCorpusSerialInterpreter(t *testing.T) {
	for _, tc := range crashCorpus {
		for _, shape := range []struct {
			kind   string
			source string
		}{
			{"serial", serialShape(tc.serial)},
			{"spawn", spawnShape(tc.spawn)},
			{"loop", loopShape(tc.loop)},
		} {
			prog, _ := build(t, shape.source)
			ip := interp.New(prog, nil)
			ctx := ip.NewCtx()
			ctx.MaxSteps = corpusMaxSteps
			err := ip.Run(ctx)
			if err == nil {
				t.Errorf("%s/%s: serial interpretation returned no error", tc.name, shape.kind)
				continue
			}
			if shape.kind == "serial" && tc.wantSerial != "" && !strings.Contains(err.Error(), tc.wantSerial) {
				t.Errorf("%s/serial: err = %v, want substring %q", tc.name, err, tc.wantSerial)
			}
		}
	}
}

func TestCrashCorpusParallelRuntime(t *testing.T) {
	for _, tc := range crashCorpus {
		for _, shape := range []struct {
			kind   string
			source string
		}{
			{"serial", serialShape(tc.serial)},
			{"spawn", spawnShape(tc.spawn)},
			{"loop", loopShape(tc.loop)},
		} {
			prog, plan := build(t, shape.source)
			for _, workers := range []int{1, 2, 8} {
				ip := interp.New(prog, nil)
				r := rt.New(ip, plan, workers)
				r.MaxSteps = corpusMaxSteps
				ctx, cancel := context.WithTimeout(context.Background(), corpusDeadline)
				start := time.Now()
				err := r.RunContext(ctx)
				cancel()
				if err == nil {
					t.Errorf("%s/%s workers=%d: parallel run returned no error", tc.name, shape.kind, workers)
				}
				if elapsed := time.Since(start); elapsed > corpusDeadline {
					t.Errorf("%s/%s workers=%d: run overshot the deadline (%v)", tc.name, shape.kind, workers, elapsed)
				}
			}
		}
	}
}

// TestCrashCorpusSpeculative: the whole corpus under forced
// speculation. A user-program fault inside a speculative region must
// abort the region (nothing committed) and re-run serially, where the
// same fault recurs as the authoritative error — never a process
// crash, never a hang. The validate-boundary
// injection additionally panics the first region after its tasks
// finish but before commit, exercising the abort→serial-rerun path
// even for corpus entries whose speculative tasks would succeed.
func TestCrashCorpusSpeculative(t *testing.T) {
	for _, tc := range crashCorpus {
		for _, shape := range []struct {
			kind   string
			source string
		}{
			{"serial", serialShape(tc.serial)},
			{"spawn", spawnShape(tc.spawn)},
			{"loop", loopShape(tc.loop)},
		} {
			prog, plan := buildSpec(t, shape.source)
			for _, faults := range []*rt.FaultPlan{nil, {PanicOnValidate: 1}} {
				ip := interp.New(prog, nil)
				r := rt.New(ip, plan, 4)
				r.Speculate = rt.SpecForce
				r.MaxSteps = corpusMaxSteps
				r.Faults = faults
				ctx, cancel := context.WithTimeout(context.Background(), corpusDeadline)
				start := time.Now()
				err := r.RunContext(ctx)
				cancel()
				if err == nil {
					t.Errorf("%s/%s faults=%v: speculative run returned no error", tc.name, shape.kind, faults != nil)
				}
				if elapsed := time.Since(start); elapsed > corpusDeadline {
					t.Errorf("%s/%s: speculative run overshot the deadline (%v)", tc.name, shape.kind, elapsed)
				}
				if r.Stats.SpeculationCommits != 0 {
					t.Errorf("%s/%s: %d commits from a failing program", tc.name, shape.kind, r.Stats.SpeculationCommits)
				}
			}
		}
	}
}
