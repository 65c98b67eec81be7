package bench

import (
	"fmt"
	"strings"

	"commute/internal/analysis/extent"
	"commute/internal/analysis/symbolic"
	"commute/internal/apps"
	"commute/internal/core"
	"commute/internal/simdash"
	"commute/internal/tracer"
)

// Table1 reproduces Table 1: the symbolic new values of the sum
// instance variable under both execution orders of two visit
// operations, shown before and after simplification.
func (r *Runner) Table1() (string, error) {
	sys, err := apps.Graph(64)
	if err != nil {
		return "", err
	}
	visit := sys.Prog.MethodByFullName("graph::visit")
	traverse := sys.Prog.MethodByFullName("builder::traverse")
	ec := extent.Constants(sys.Analysis.Eff, traverse)
	ext := extent.Compute(sys.Analysis.Eff, traverse, ec)
	aux := make(map[int]bool)
	for _, c := range ext.Aux {
		aux[c.ID] = true
	}
	env := symbolic.NewEnv(sys.Prog, ec, aux)

	r12, err := symbolic.ExecutePair(visit, visit, "1", "2", env)
	if err != nil {
		return "", err
	}
	r21, err := symbolic.ExecutePair(visit, visit, "2", "1", env)
	if err != nil {
		return "", err
	}
	c12, c21 := r12.Canonical(), r21.Canonical()

	rows := [][]string{
		{"r->visit(p1); r->visit(p2)", "(sum+p1)+p2", c12.IVar("graph.sum").Key()},
		{"r->visit(p2); r->visit(p1)", "(sum+p2)+p1", c21.IVar("graph.sum").Key()},
	}
	out := table([]string{"Execution Order", "Paper", "Simplified (ours)"}, rows)
	out += fmt.Sprintf("\nequal after simplification: %v\n",
		symbolic.Equal(c12.IVar("graph.sum"), c21.IVar("graph.sum")))
	out += fmt.Sprintf("invoked multisets equal:     %v\n",
		symbolic.EqualMultisets(c12.Invoked, c21.Invoked))
	return out, nil
}

// statRows renders the Table 2/8 analysis statistics for a set of
// parallel extents.
func statRows(reports []*core.MethodReport, names map[string]string) [][]string {
	var rows [][]string
	for _, rep := range reports {
		label, ok := names[rep.Method.FullName()]
		if !ok || !rep.Parallel {
			continue
		}
		rows = append(rows, []string{
			label,
			fmt.Sprintf("%d", rep.AuxiliaryCallSites),
			fmt.Sprintf("%d", rep.ExtentSize),
			fmt.Sprintf("%d", rep.IndependentPairs),
			fmt.Sprintf("%d", rep.SymbolicPairs),
		})
	}
	return rows
}

var statHeader = []string{
	"Parallel Extent", "Auxiliary Call Sites", "Extent Size",
	"Independent Pairs", "Symbolically Executed Pairs",
}

// Table2 reproduces Table 2: analysis statistics for the Barnes-Hut
// parallel extents.
func (r *Runner) Table2() (string, error) {
	sys, err := r.bhSystem(r.Cfg.BHBodies[0])
	if err != nil {
		return "", err
	}
	rows := statRows(sys.Reports(), map[string]string{
		"nbody::advanceVelocities": "Velocity",
		"nbody::computeForces":     "Force",
		"nbody::advancePositions":  "Position",
		"nbody::resetForces":       "Reset",
	})
	out := table(statHeader, rows)
	out += "\npaper: Velocity 5/3/5/1, Force 9/6/17/4, Position 8/3/5/1 (aux/size/indep/symbolic)\n"
	plan := apps.PaperPlan(sys)
	out += fmt.Sprintf("parallel loops: %d found, %d nested suppressed, %d generated (paper: 5 found, 2 suppressed, 3 generated)\n",
		plan.LoopsFound, plan.LoopsSuppressed, plan.LoopsFound-plan.LoopsSuppressed-plan.LoopsRefused)
	return out, nil
}

// Table3 reproduces Table 3: Barnes-Hut execution times over processor
// counts on the simulated machine.
func (r *Runner) Table3() (string, error) {
	header := []string{"Bodies", "Serial"}
	for _, p := range r.Cfg.Procs {
		header = append(header, fmt.Sprintf("%d", p))
	}
	var rows [][]string
	for _, n := range r.Cfg.BHBodies {
		tr, err := r.bhTrace(n)
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
	return table(header, rows) + "\n(simulated seconds; paper Table 3 reports 8192/16384 bodies on DASH)\n", nil
}

// Fig17 reproduces Figure 17: Barnes-Hut speedup curves.
func (r *Runner) Fig17() (string, error) {
	return r.speedupFigure(true)
}

// Fig19 reproduces Figure 19: Water speedup curves.
func (r *Runner) Fig19() (string, error) {
	return r.speedupFigure(false)
}

func (r *Runner) speedupFigure(bh bool) (string, error) {
	header := []string{"Size"}
	for _, p := range r.Cfg.Procs {
		header = append(header, fmt.Sprintf("%d", p))
	}
	sizes := r.Cfg.WaterMols
	if bh {
		sizes = r.Cfg.BHBodies
	}
	var rows [][]string
	var curves []string
	for _, n := range sizes {
		var tr *tracer.Trace
		var err error
		if bh {
			tr, err = r.bhTrace(n)
		} else {
			tr, err = r.waterTrace(n)
		}
		if err != nil {
			return "", err
		}
		base := simdash.Simulate(tr, simdash.DefaultParams(1)).TimeMicros
		row := []string{fmt.Sprintf("%d", n)}
		var speeds []float64
		for _, p := range r.Cfg.Procs {
			res := simdash.Simulate(tr, simdash.DefaultParams(p))
			s := base / res.TimeMicros
			speeds = append(speeds, s)
			row = append(row, f2(s))
		}
		rows = append(rows, row)
		curves = append(curves, asciiCurve(fmt.Sprintf("%6d", n), speeds, r.Cfg.Procs))
	}
	out := table(header, rows)
	out += "\n" + strings.Join(curves, "")
	return out, nil
}

// asciiCurve renders one speedup series as a bar row set.
func asciiCurve(label string, speeds []float64, procs []int) string {
	var sb strings.Builder
	for i, s := range speeds {
		bars := int(s * 2)
		if bars < 1 {
			bars = 1
		}
		sb.WriteString(fmt.Sprintf("%s @%2dp |%s %.2fx\n", label, procs[i], strings.Repeat("█", bars), s))
	}
	sb.WriteString("\n")
	return sb.String()
}

// Table4 reproduces Table 4: parallelism coverage for Barnes-Hut.
func (r *Runner) Table4() (string, error) {
	return r.coverageTable(true)
}

// Table10 reproduces Table 10: parallelism coverage for Water.
func (r *Runner) Table10() (string, error) {
	return r.coverageTable(false)
}

func (r *Runner) coverageTable(bh bool) (string, error) {
	sizes := r.Cfg.WaterMols
	label := "Molecules"
	if bh {
		sizes = r.Cfg.BHBodies
		label = "Bodies"
	}
	var rows [][]string
	for _, n := range sizes {
		var tr *tracer.Trace
		var err error
		if bh {
			tr, err = r.bhTrace(n)
		} else {
			tr, err = r.waterTrace(n)
		}
		if err != nil {
			return "", err
		}
		total := serialMicros(tr)
		params := simdash.DefaultParams(1)
		par := float64(tr.ParallelUnits()) * params.UnitMicros
		rows = append(rows, []string{
			fmt.Sprintf("%d", n), secs(total), secs(par),
			fmt.Sprintf("%.2f%%", 100*par/total),
		})
	}
	note := "\npaper: 98.02%/96.83% (Barnes-Hut), 98.70%/99.07% (Water)\n"
	return table([]string{label, "Serial Compute (s)", "In Parallelized Sections (s)", "Coverage"}, rows) + note, nil
}

// Table6 reproduces Table 6 (Barnes-Hut granularities).
func (r *Runner) Table6() (string, error) {
	return r.granularityTable(true)
}

// Table11 reproduces Table 11 (Water granularities).
func (r *Runner) Table11() (string, error) {
	return r.granularityTable(false)
}

func (r *Runner) granularityTable(bh bool) (string, error) {
	sizes := r.Cfg.WaterMols
	label := "Molecules"
	if bh {
		sizes = r.Cfg.BHBodies
		label = "Bodies"
	}
	var rows [][]string
	for _, n := range sizes {
		var tr *tracer.Trace
		var err error
		if bh {
			tr, err = r.bhTrace(n)
		} else {
			tr, err = r.waterTrace(n)
		}
		if err != nil {
			return "", err
		}
		res := simdash.Simulate(tr, simdash.DefaultParams(32))
		// The paper divides the (serial) time spent in parallelized
		// sections by each event count.
		par := float64(tr.ParallelUnits()) * res.Params.UnitMicros
		c := res.Counters
		row := []string{fmt.Sprintf("%d", n)}
		div := func(count int64) string {
			if count == 0 {
				return "-"
			}
			return f1(par / float64(count))
		}
		row = append(row, div(c.Loops), div(c.Chunks), div(c.Iterations), div(c.Locks))
		rows = append(rows, row)
	}
	note := "\n(µs per loop/chunk/iteration/lock at 32 processors; paper Tables 6 and 11)\n"
	return table([]string{label, "Loop Size", "Chunk Size", "Iteration Size", "Task Size"}, rows) + note, nil
}

// Fig18 reproduces Figure 18 (Barnes-Hut cumulative breakdowns).
func (r *Runner) Fig18() (string, error) {
	return r.breakdownFigure(true)
}

// Fig20 reproduces Figure 20 (Water cumulative breakdowns).
func (r *Runner) Fig20() (string, error) {
	return r.breakdownFigure(false)
}

func (r *Runner) breakdownFigure(bh bool) (string, error) {
	n := r.Cfg.WaterMols[0]
	if bh {
		n = r.Cfg.BHBodies[0]
	}
	var tr *tracer.Trace
	var err error
	if bh {
		tr, err = r.bhTrace(n)
	} else {
		tr, err = r.waterTrace(n)
	}
	if err != nil {
		return "", err
	}
	header := []string{"Procs", "Serial Compute", "Parallel Compute", "Blocked", "Serial Idle", "Parallel Idle", "Total (cumulative s)"}
	var rows [][]string
	for _, p := range r.Cfg.Procs {
		res := simdash.Simulate(tr, simdash.DefaultParams(p))
		b := res.Breakdown
		rows = append(rows, []string{
			fmt.Sprintf("%d", p),
			secs(b.SerialCompute), secs(b.ParallelCompute), secs(b.Blocked),
			secs(b.SerialIdle), secs(b.ParallelIdle), secs(b.Total()),
		})
	}
	out := table(header, rows)
	// Stacked bars normalized to the single-processor total.
	base := simdash.Simulate(tr, simdash.DefaultParams(1)).Breakdown.Total()
	out += "\n"
	for _, p := range r.Cfg.Procs {
		res := simdash.Simulate(tr, simdash.DefaultParams(p))
		b := res.Breakdown
		scale := 60.0 / base
		bar := strings.Repeat("C", int(b.SerialCompute*scale)) +
			strings.Repeat("P", int(b.ParallelCompute*scale)) +
			strings.Repeat("B", int(b.Blocked*scale)) +
			strings.Repeat("s", int(b.SerialIdle*scale)) +
			strings.Repeat("i", int(b.ParallelIdle*scale))
		out += fmt.Sprintf("%2dp |%s\n", p, bar)
	}
	out += "(C=serial compute, P=parallel compute, B=blocked, s=serial idle, i=parallel idle)\n"
	return out, nil
}

// Table7 reproduces Table 7: the explicitly parallel Barnes-Hut
// baseline (parallel tree build + costzones locality, no per-object
// locks).
func (r *Runner) Table7() (string, error) {
	header := []string{"Bodies"}
	for _, p := range r.Cfg.Procs {
		header = append(header, fmt.Sprintf("%d", p))
	}
	var rows [][]string
	for _, n := range r.Cfg.BHBodies {
		tr, err := r.bhTrace(n)
		if err != nil {
			return "", err
		}
		ex := apps.ExplicitBarnesHut(tr, n, 0.85)
		row := []string{fmt.Sprintf("%d", n)}
		for _, p := range r.Cfg.Procs {
			res := simdash.Simulate(ex, simdash.DefaultParams(p))
			row = append(row, secs(res.TimeMicros))
		}
		rows = append(rows, row)
	}
	note := "\n(simulated seconds; compare Table 3 — the explicit version wins at high processor counts\n because the tree build parallelizes and costzones improves locality, §6.2.5)\n"
	return table(header, rows) + note, nil
}
