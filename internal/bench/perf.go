package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"commute"
	"commute/internal/apps"
	"commute/internal/apps/src"
	"commute/internal/interp"
	"commute/internal/rt"
)

// PerfResult is one measured experiment in machine-readable form.
type PerfResult struct {
	Name        string           `json:"name"`
	NsPerOp     int64            `json:"ns_per_op"`
	AllocsPerOp int64            `json:"allocs_per_op"`
	BytesPerOp  int64            `json:"bytes_per_op"`
	Iterations  int              `json:"iterations"`
	Stats       map[string]int64 `json:"stats,omitempty"`
}

// PerfReport is the BENCH_<rev>.json payload: the performance
// trajectory of the execution engine, comparable across PRs.
type PerfReport struct {
	Rev     string       `json:"rev"`
	Go      string       `json:"go"`
	OS      string       `json:"os"`
	Arch    string       `json:"arch"`
	CPUs    int          `json:"cpus"`
	Workers int          `json:"workers"`
	Results []PerfResult `json:"results"`
}

// perfWorkers is the worker count for the parallel perf experiments.
const perfWorkers = 4

// Micro benchmark programs: tight loops isolating the interpreter's
// hottest paths (frame-slot access, object-field access, and float
// arithmetic). Each runs under both execution engines so the report
// tracks the compiled engine's advantage over the tree walker.
const (
	microIdentSrc = `
class bench {
public:
  int acc;
  int spin(int n);
};
int bench::spin(int n) {
  int i; int a; int b; int c;
  a = 1; b = 2; c = 0;
  for (i = 0; i < n; i++) {
    c = c + a;
    a = b - c;
    b = c + i;
  }
  return c;
}
bench B;
void main() { B.spin(60000); }
`
	microFieldSrc = `
class point {
public:
  int x; int y; int z;
  void jiggle(int n);
};
void point::jiggle(int n) {
  int i;
  for (i = 0; i < n; i++) {
    x = x + 1;
    y = y + x;
    z = z + y;
  }
}
point P;
void main() { P.jiggle(60000); }
`
	microArithSrc = `
class acc {
public:
  double sum;
  double step(int n);
};
double acc::step(int n) {
  int i; double x; double y;
  x = 0.5; y = 1.25;
  for (i = 0; i < n; i++) {
    x = x * 1.0000001 + y;
    y = y * 0.5 + x * 0.25;
    sum = sum + x - y;
  }
  return sum;
}
acc A;
void main() { A.step(60000); }
`

	// specDisjointBenchSrc is the speculation workload: churn reads and
	// overwrites val, so the (churn, churn) pair fails the symbolic test
	// and fill's extent is rejected — but every task targets a distinct
	// cell, so the speculative region always commits. Sized so the
	// journaled loads and stores inside the region dominate the region
	// setup, making the entry a fair monitor-speed comparison between
	// the tree walker and the compiled engine.
	specDisjointBenchSrc = `
const int N = 64;

class cell {
public:
  int val;
  void churn(int v);
};

class table {
public:
  cell *cells[N];
  int sum;
  void init();
  void fill();
  void report();
};

table T;

void cell::churn(int v) {
  int i;
  for (i = 0; i < 200; i += 1) {
    val = val * 3 + v + i;
  }
}

void table::init() {
  int i;
  for (i = 0; i < N; i += 1) {
    cells[i] = new cell;
  }
}

void table::fill() {
  int i;
  for (i = 0; i < N; i += 1) {
    cells[i]->churn(i);
  }
}

void table::report() {
  int i;
  sum = 0;
  for (i = 0; i < N; i += 1) {
    sum = sum + cells[i]->val;
  }
  print(sum);
}

void main() {
  T.init();
  T.fill();
  T.report();
}
`
)

// statsMap extracts the scheduler counters worth tracking across PRs.
func statsMap(st *rt.Stats) map[string]int64 {
	return map[string]int64{
		"regions":        st.Regions,
		"loops":          st.ParallelLoops,
		"chunks":         st.Chunks,
		"iterations":     st.Iterations,
		"tasks":          st.Tasks,
		"lazy":           st.LazyInlines,
		"locks":          st.LockAcquires,
		"steals":         st.Steals,
		"local_pops":     st.LocalPops,
		"guard_parallel": st.GuardParallel,
		"guard_serial":   st.GuardSerial,
		"spec_regions":   st.SpeculativeRegions,
		"spec_commits":   st.SpeculationCommits,
		"spec_aborts":    st.SpeculationAborts,
	}
}

// RunPerf measures wall-clock execution of the real applications under
// the serial interpreter and both parallel schedulers, sized for a
// quick smoke run (seconds, not minutes). Each result carries ns/op
// and allocs/op from testing.Benchmark plus the runtime's scheduler
// counters from a representative run.
func RunPerf(rev string) (*PerfReport, error) {
	bh, err := apps.BarnesHut(256, 1)
	if err != nil {
		return nil, fmt.Errorf("barnes-hut: %w", err)
	}
	water, err := apps.Water(64, 1)
	if err != nil {
		return nil, fmt.Errorf("water: %w", err)
	}
	// Conditional commutativity: the same condhash program with the
	// synthesized guard holding (mode 0, parallel regions) and failing
	// (mode 3, serial fallback), tracking what the runtime guard costs
	// on each path.
	condTrue, err := apps.CondHash(0, 256)
	if err != nil {
		return nil, fmt.Errorf("condhash: %w", err)
	}
	condFalse, err := apps.CondHash(3, 256)
	if err != nil {
		return nil, fmt.Errorf("condhash-serial: %w", err)
	}
	// Speculation: the commit-heavy disjoint workload forced and with
	// speculation off (the rejected extent runs serially inside the
	// parallel schedule), plus the abort-heavy
	// conflict demonstrator exercising rollback and serial rerun.
	specDisjoint, err := commute.Load("spec-disjoint.mc", specDisjointBenchSrc)
	if err != nil {
		return nil, fmt.Errorf("spec-disjoint: %w", err)
	}
	specConflict, err := commute.Load("spec-conflict.mc", src.SpecConflict)
	if err != nil {
		return nil, fmt.Errorf("spec-conflict: %w", err)
	}

	micros := []struct {
		name string
		src  string
	}{
		{"micro-ident", microIdentSrc},
		{"micro-field", microFieldSrc},
		{"micro-arith", microArithSrc},
	}
	type cse struct {
		name string
		sys  *commute.System
		ser  bool
		eng  interp.Engine // serial cases only: parallel runs are always compiled
		cond bool
		spec rt.SpecMode
	}
	var cases []cse
	for _, m := range micros {
		sys, err := commute.Load(m.name+".mc", m.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		cases = append(cases,
			cse{m.name + "-compiled", sys, true, interp.EngineCompiled, false, rt.SpecOff},
			cse{m.name + "-walk", sys, true, interp.EngineWalk, false, rt.SpecOff},
		)
	}

	rep := &PerfReport{
		Rev:     rev,
		Go:      runtime.Version(),
		OS:      runtime.GOOS,
		Arch:    runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Workers: perfWorkers,
	}

	cases = append(cases,
		cse{"barneshut-serial", bh, true, interp.EngineCompiled, false, rt.SpecOff},
		cse{"barneshut-parallel-stealing", bh, false, interp.EngineCompiled, false, rt.SpecOff},
		cse{"water-serial", water, true, interp.EngineCompiled, false, rt.SpecOff},
		cse{"water-parallel-stealing", water, false, interp.EngineCompiled, false, rt.SpecOff},
		cse{"condhash-serial", condTrue, true, interp.EngineCompiled, false, rt.SpecOff},
		cse{"condhash-guard-parallel", condTrue, false, interp.EngineCompiled, true, rt.SpecOff},
		cse{"condhash-guard-serial", condFalse, false, interp.EngineCompiled, true, rt.SpecOff},
		cse{"spec-disjoint-off-compiled", specDisjoint, false, interp.EngineCompiled, false, rt.SpecOff},
		cse{"spec-disjoint-force-compiled", specDisjoint, false, interp.EngineCompiled, false, rt.SpecForce},
		cse{"spec-conflict-force-compiled", specConflict, false, interp.EngineCompiled, false, rt.SpecForce},
	)
	for _, c := range cases {
		c := c
		var runErr error
		var lastStats *rt.Stats
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.ser {
					if _, err := c.sys.RunSerialEngine(c.eng, io.Discard); err != nil {
						runErr = err
						b.FailNow()
					}
					continue
				}
				opts := commute.RunOptions{Workers: perfWorkers, Conditional: c.cond, Speculate: c.spec}
				_, st, err := c.sys.RunParallelOpts(nil, opts, io.Discard)
				if err != nil {
					runErr = err
					b.FailNow()
				}
				lastStats = st
			}
		})
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", c.name, runErr)
		}
		pr := PerfResult{
			Name:        c.name,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Iterations:  res.N,
		}
		if lastStats != nil {
			pr.Stats = statsMap(lastStats)
		}
		rep.Results = append(rep.Results, pr)
	}
	if err := analysisPerf(rep, bh, water); err != nil {
		return nil, err
	}
	if err := nativePerf(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// MergeResults folds results into BENCH_<rev>.json in dir — reading
// the existing report when one is there, replacing same-named entries,
// appending the rest — and returns the path. The serving-path load
// runs (-serve-load, -fleet-load) use it so their serve-* entries land
// in the same trajectory file as the engine suites and gate through
// benchdiff identically.
func MergeResults(dir, rev string, results []PerfResult) (string, error) {
	rep := &PerfReport{
		Rev:     rev,
		Go:      runtime.Version(),
		OS:      runtime.GOOS,
		Arch:    runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Workers: perfWorkers,
	}
	path := fmt.Sprintf("%s/BENCH_%s.json", dir, rev)
	if dir == "" || dir == "." {
		path = fmt.Sprintf("BENCH_%s.json", rev)
	}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, rep); err != nil {
			return "", fmt.Errorf("existing %s: %w", path, err)
		}
	}
	replaced := make(map[string]PerfResult, len(results))
	for _, r := range results {
		replaced[r.Name] = r
	}
	merged := rep.Results[:0]
	for _, r := range rep.Results {
		if nr, ok := replaced[r.Name]; ok {
			merged = append(merged, nr)
			delete(replaced, r.Name)
		} else {
			merged = append(merged, r)
		}
	}
	for _, r := range results {
		if _, pending := replaced[r.Name]; pending {
			merged = append(merged, r)
		}
	}
	rep.Results = merged
	return rep.WriteJSON(dir)
}

// WriteJSON writes the report to BENCH_<rev>.json in dir and returns
// the path.
func (r *PerfReport) WriteJSON(dir string) (string, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := fmt.Sprintf("%s/BENCH_%s.json", dir, r.Rev)
	if dir == "" || dir == "." {
		path = fmt.Sprintf("BENCH_%s.json", r.Rev)
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
