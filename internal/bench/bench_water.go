package bench

import (
	"fmt"
	"sync"
	"time"

	"commute"
	"commute/internal/analysis/depbase"
	"commute/internal/apps"
	"commute/internal/core"
	"commute/internal/simdash"
)

// Table8 reproduces Table 8: analysis statistics for the Water parallel
// extents.
func (r *Runner) Table8() (string, error) {
	sys, err := r.waterSystem(r.Cfg.WaterMols[0])
	if err != nil {
		return "", err
	}
	rows := statRows(sys.Reports(), map[string]string{
		"water::predictAll": "Virtual",
		"water::poteng":     "Energy",
		"water::loadAll":    "Loading",
		"water::interf":     "Forces",
		"water::momentaAll": "Momenta",
	})
	out := table(statHeader, rows)
	out += "\npaper: Virtual 9/3/5/1, Energy 1/5/14/1, Loading 5/2/2/1, Forces 3/4/9/1, Momenta 2/2/2/1\n"
	plan := sys.Plan
	out += fmt.Sprintf("parallel loops: %d found, %d nested suppressed, %d generated (paper: 7 found, 2 suppressed, 5 generated)\n",
		plan.LoopsFound, plan.LoopsSuppressed, plan.LoopsFound-plan.LoopsSuppressed-plan.LoopsRefused)
	return out, nil
}

// Table9 reproduces Table 9: Water execution times.
func (r *Runner) Table9() (string, error) {
	header := []string{"Molecules", "Serial"}
	for _, p := range r.Cfg.Procs {
		header = append(header, fmt.Sprintf("%d", p))
	}
	var rows [][]string
	for _, n := range r.Cfg.WaterMols {
		tr, err := r.waterTrace(n)
		if err != nil {
			return "", err
		}
		row := []string{fmt.Sprintf("%d", n), secs(serialMicros(tr))}
		for _, p := range r.Cfg.Procs {
			res := simdash.Simulate(tr, simdash.DefaultParams(p))
			row = append(row, secs(res.TimeMicros))
		}
		rows = append(rows, row)
	}
	note := "\n(simulated seconds; as in the paper, Water stops scaling beyond ~8 processors\n because of contention for the shared accumulator objects)\n"
	return table(header, rows) + note, nil
}

// Table12 reproduces Table 12: the explicitly parallel Water baseline
// (replicated accumulators, per-phase reductions, no contention).
func (r *Runner) Table12() (string, error) {
	header := []string{"Molecules"}
	for _, p := range r.Cfg.Procs {
		header = append(header, fmt.Sprintf("%d", p))
	}
	var rows [][]string
	for _, n := range r.Cfg.WaterMols {
		tr, err := r.waterTrace(n)
		if err != nil {
			return "", err
		}
		ex := apps.ExplicitWater(tr, int64(n*20))
		row := []string{fmt.Sprintf("%d", n)}
		for _, p := range r.Cfg.Procs {
			res := simdash.Simulate(ex, simdash.DefaultParams(p))
			row = append(row, secs(res.TimeMicros))
		}
		rows = append(rows, row)
	}
	note := "\n(simulated seconds; compare Table 9 — replication removes the contention,\n so the explicit version keeps scaling, §6.3.5)\n"
	return table(header, rows) + note, nil
}

// Table5 reproduces Table 5: parallel construct overheads. The
// simulator uses the paper's measured DASH constants; alongside them we
// measure the analogous costs of this repository's real goroutine
// runtime on the host machine.
func (r *Runner) Table5() (string, error) {
	p := simdash.DefaultParams(32)
	rows := [][]string{
		{"Loop overhead (32 procs)", "211", f1(p.LoopOverhead()), f2(measureLoopOverhead())},
		{"Chunk overhead", "30", f1(p.ChunkOverhead), f2(measureChunkOverhead())},
		{"Iteration overhead", "0.38", f2(p.IterOverhead), f2(measureIterOverhead())},
		{"Lock overhead", "5.1", f1(p.LockOverhead), f2(measureLockOverhead())},
	}
	note := "\n(µs; 'Simulator' are the paper's DASH constants used by internal/simdash,\n 'Go runtime' are the measured costs of the analogous constructs in internal/rt\n on this host)\n"
	return table([]string{"Source of Overhead", "Paper (DASH)", "Simulator", "Go runtime (measured)"}, rows) + note, nil
}

// measureLockOverhead times an uncontended mutex acquire/release pair.
func measureLockOverhead() float64 {
	var mu sync.Mutex
	const iters = 200000
	start := time.Now()
	for i := 0; i < iters; i++ {
		mu.Lock()
		mu.Unlock() //nolint:staticcheck // intentional empty critical section
	}
	return float64(time.Since(start).Microseconds()) / iters
}

// measureIterOverhead times the per-iteration dispatch of a tight
// closure-based loop.
func measureIterOverhead() float64 {
	const iters = 1000000
	sum := 0
	body := func(i int) { sum += i }
	start := time.Now()
	for i := 0; i < iters; i++ {
		body(i)
	}
	_ = sum
	return float64(time.Since(start).Microseconds()) / iters
}

// measureChunkOverhead times an atomic chunk claim (compare-and-swap on
// a shared counter).
func measureChunkOverhead() float64 {
	var mu sync.Mutex
	next := 0
	const chunks = 100000
	start := time.Now()
	for i := 0; i < chunks; i++ {
		mu.Lock()
		next += 16
		mu.Unlock()
	}
	_ = next
	return float64(time.Since(start).Microseconds()) / chunks
}

// measureLoopOverhead times starting and joining a pool of goroutines
// (the loop startup + barrier cost).
func measureLoopOverhead() float64 {
	const loops = 200
	start := time.Now()
	for i := 0; i < loops; i++ {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() { wg.Done() }()
		}
		wg.Wait()
	}
	return float64(time.Since(start).Microseconds()) / loops
}

// ---------------------------------------------------------------------
// Ablations

// AblationAux re-runs the analysis with auxiliary-operation recognition
// disabled (§3.5.2): the paper notes the compiler would be unable to
// parallelize any of the extents.
func (r *Runner) AblationAux() (string, error) {
	return r.ablationAnalysis(func(a *core.Analysis) {
		a.DisableAuxiliary = true
	}, "auxiliary recognition disabled")
}

// AblationEC re-runs the analysis with the extent-constant extension
// disabled (§3.5.1).
func (r *Runner) AblationEC() (string, error) {
	return r.ablationAnalysis(func(a *core.Analysis) {
		a.DisableExtentConstants = true
	}, "extent constants disabled")
}

// phaseDrivers are the paper's named parallel extents.
var phaseDrivers = map[string][]string{
	"Barnes-Hut": {
		"nbody::computeForces", "nbody::advanceVelocities",
		"nbody::advancePositions", "nbody::resetForces",
	},
	"Water": {
		"water::predictAll", "water::loadAll", "water::interf",
		"water::poteng", "water::momentaAll",
	},
}

// ablationAnalysis compares the phase drivers' parallel status with and
// without an extension, using fresh (uncached) analyses.
func (r *Runner) ablationAnalysis(disable func(*core.Analysis), label string) (string, error) {
	bh, err := apps.BarnesHut(64, 1)
	if err != nil {
		return "", err
	}
	w, err := apps.Water(27, 1)
	if err != nil {
		return "", err
	}
	var rows [][]string
	for _, tc := range []struct {
		name string
		sys  *commute.System
	}{{"Barnes-Hut", bh}, {"Water", w}} {
		full := core.New(tc.sys.Prog)
		abl := core.New(tc.sys.Prog)
		disable(abl)
		for _, driver := range phaseDrivers[tc.name] {
			m := tc.sys.Prog.MethodByFullName(driver)
			fr := full.IsParallel(m)
			ar := abl.IsParallel(m)
			rows = append(rows, []string{
				tc.name, driver,
				parStatus(fr.Parallel), parStatus(ar.Parallel),
			})
		}
	}
	return table([]string{"Application", "Phase", "Full analysis", label}, rows), nil
}

func parStatus(p bool) string {
	if p {
		return "parallel"
	}
	return "serial"
}

// AblationLocks compares the simulated performance with and without the
// §5.4 lock optimizations (every nested operation acquires its own
// lock).
func (r *Runner) AblationLocks() (string, error) {
	n := r.Cfg.BHBodies[0]
	sys, err := r.bhSystem(n)
	if err != nil {
		return "", err
	}
	trOpt, err := r.bhTrace(n)
	if err != nil {
		return "", err
	}
	trNoHoist, err := apps.TraceWithoutHoisting(sys)
	if err != nil {
		return "", err
	}
	var rows [][]string
	for _, p := range []int{1, 8, 32} {
		opt := simdash.Simulate(trOpt, simdash.DefaultParams(p))
		raw := simdash.Simulate(trNoHoist, simdash.DefaultParams(p))
		rows = append(rows, []string{
			fmt.Sprintf("%d", p),
			secs(opt.TimeMicros), fmt.Sprintf("%d", opt.Counters.Locks),
			secs(raw.TimeMicros), fmt.Sprintf("%d", raw.Counters.Locks),
		})
	}
	note := "\n(Barnes-Hut; hoisting eliminates the nested vector locks — fewer lock events,\n lower lock overhead, §5.4)\n"
	return table([]string{"Procs", "Hoisted time (s)", "Hoisted locks", "No-hoist time (s)", "No-hoist locks"}, rows) + note, nil
}

// AblationSuppress compares the simulated performance with and without
// the §5.2 suppression of nested concurrency.
func (r *Runner) AblationSuppress() (string, error) {
	n := r.Cfg.WaterMols[0]
	sys, err := r.waterSystem(n)
	if err != nil {
		return "", err
	}
	trOpt, err := r.waterTrace(n)
	if err != nil {
		return "", err
	}
	trNested, err := apps.TraceWithNestedLoops(sys)
	if err != nil {
		return "", err
	}
	var rows [][]string
	for _, p := range []int{1, 8, 32} {
		opt := simdash.Simulate(trOpt, simdash.DefaultParams(p))
		raw := simdash.Simulate(trNested, simdash.DefaultParams(p))
		rows = append(rows, []string{
			fmt.Sprintf("%d", p),
			secs(opt.TimeMicros), fmt.Sprintf("%d", opt.Counters.Chunks),
			secs(raw.TimeMicros), fmt.Sprintf("%d", raw.Counters.Chunks),
		})
	}
	note := "\n(Water; without suppression the O(n) inner loops each pay loop/chunk overheads,\n overwhelming the useful work, §5.2)\n"
	return table([]string{"Procs", "Suppressed time (s)", "Chunks", "Nested time (s)", "Chunks(nested)"}, rows) + note, nil
}

// Replication evaluates the §6.3.4 proposal the paper makes for Water:
// "It should, in principle, be possible to automatically eliminate the
// contention by replicating objects to enable conflict-free write
// access. We expect that this optimization would dramatically improve
// the scalability." The plan option ReplicateAccumulators detects
// operations whose receiver writes are pure commutative accumulations
// and runs them against per-processor replicas.
func (r *Runner) Replication() (string, error) {
	n := r.Cfg.WaterMols[0]
	sys, err := r.waterSystem(n)
	if err != nil {
		return "", err
	}
	trAuto, err := r.waterTrace(n)
	if err != nil {
		return "", err
	}
	trRepl, err := apps.TraceWithReplication(sys)
	if err != nil {
		return "", err
	}
	baseA := simdash.Simulate(trAuto, simdash.DefaultParams(1)).TimeMicros
	baseR := simdash.Simulate(trRepl, simdash.DefaultParams(1)).TimeMicros
	var rows [][]string
	for _, p := range r.Cfg.Procs {
		a := simdash.Simulate(trAuto, simdash.DefaultParams(p))
		rep := simdash.Simulate(trRepl, simdash.DefaultParams(p))
		rows = append(rows, []string{
			fmt.Sprintf("%d", p),
			f2(baseA / a.TimeMicros), secs(a.Breakdown.Blocked),
			f2(baseR / rep.TimeMicros), secs(rep.Breakdown.Blocked),
		})
	}
	note := "\n(Water; replication removes the lock contention on the shared force bank and\n sums objects, restoring scalability — the paper's §6.3.4 prediction)\n"
	return table([]string{"Procs", "Locked speedup", "Locked blocked (s)", "Replicated speedup", "Replicated blocked (s)"}, rows) + note, nil
}

// DepBase runs the type-based data dependence baseline (§8.1): without
// commutativity reasoning it cannot parallelize any of the loops in
// either application.
func (r *Runner) DepBase() (string, error) {
	bh, err := apps.BarnesHut(64, 1)
	if err != nil {
		return "", err
	}
	w, err := apps.Water(27, 1)
	if err != nil {
		return "", err
	}
	g, err := apps.Graph(32)
	if err != nil {
		return "", err
	}
	var rows [][]string
	for _, tc := range []struct {
		name string
		sys  *commute.System
	}{{"Barnes-Hut", bh}, {"Water", w}, {"Graph traversal", g}} {
		dep := depbase.Analyze(tc.sys.Prog)
		ca := 0
		for _, lp := range tc.sys.Plan.Loops {
			if lp.Parallel {
				ca++
			}
		}
		rows = append(rows, []string{
			tc.name,
			fmt.Sprintf("%d/%d", dep.ParallelLoops, dep.TotalLoops),
			fmt.Sprintf("%d/%d", ca, len(tc.sys.Plan.Loops)),
		})
	}
	note := "\n(loops parallelized / loops examined; type-based dependence analysis cannot\n prove independence for any loop that updates objects through pointers, §8.1)\n"
	return table([]string{"Application", "Dependence analysis", "Commutativity analysis"}, rows) + note, nil
}
