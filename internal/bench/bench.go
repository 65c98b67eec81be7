// Package bench regenerates every table and figure of the paper's
// evaluation section (§6) on the simulated multiprocessor, plus the
// ablation studies DESIGN.md calls out. Each experiment produces a
// plain-text table whose rows mirror the paper's presentation;
// EXPERIMENTS.md records the paper-reported values next to ours.
package bench

import (
	"fmt"
	"strings"

	"commute"
	"commute/internal/apps"
	"commute/internal/simdash"
	"commute/internal/tracer"
)

// Config selects workload sizes and machine shape.
type Config struct {
	BHBodies   []int
	BHSteps    int
	WaterMols  []int
	WaterSteps int
	Procs      []int
}

// DefaultConfig returns a laptop-scale configuration (the paper's sizes
// are available via PaperConfig). The structural results are
// size-stable; EXPERIMENTS.md verifies them at paper scale.
func DefaultConfig() Config {
	return Config{
		BHBodies:   []int{512, 1024},
		BHSteps:    2,
		WaterMols:  []int{125, 216},
		WaterSteps: 2,
		Procs:      []int{1, 2, 4, 8, 16, 32},
	}
}

// PaperConfig returns the paper's workload sizes (8192/16384 bodies,
// 343/512 molecules); expect minutes of tracing time.
func PaperConfig() Config {
	return Config{
		BHBodies:   []int{8192, 16384},
		BHSteps:    2,
		WaterMols:  []int{343, 512},
		WaterSteps: 2,
		Procs:      []int{1, 2, 4, 8, 16, 32},
	}
}

// Runner caches compiled systems and traces across experiments.
type Runner struct {
	Cfg Config

	systems map[string]*commute.System
	traces  map[string]*tracer.Trace
}

// NewRunner returns a runner for the configuration.
func NewRunner(cfg Config) *Runner {
	return &Runner{
		Cfg:     cfg,
		systems: make(map[string]*commute.System),
		traces:  make(map[string]*tracer.Trace),
	}
}

func (r *Runner) bhSystem(bodies int) (*commute.System, error) {
	key := fmt.Sprintf("bh%d", bodies)
	if s, ok := r.systems[key]; ok {
		return s, nil
	}
	s, err := apps.BarnesHut(bodies, r.Cfg.BHSteps)
	if err != nil {
		return nil, err
	}
	r.systems[key] = s
	return s, nil
}

func (r *Runner) waterSystem(mols int) (*commute.System, error) {
	key := fmt.Sprintf("w%d", mols)
	if s, ok := r.systems[key]; ok {
		return s, nil
	}
	s, err := apps.Water(mols, r.Cfg.WaterSteps)
	if err != nil {
		return nil, err
	}
	r.systems[key] = s
	return s, nil
}

func (r *Runner) trace(key string, sys *commute.System) (*tracer.Trace, error) {
	if t, ok := r.traces[key]; ok {
		return t, nil
	}
	t, err := sys.Trace()
	if err != nil {
		return nil, err
	}
	r.traces[key] = t
	return t, nil
}

func (r *Runner) bhTrace(bodies int) (*tracer.Trace, error) {
	sys, err := r.bhSystem(bodies)
	if err != nil {
		return nil, err
	}
	return r.trace(fmt.Sprintf("bh%d", bodies), sys)
}

func (r *Runner) waterTrace(mols int) (*tracer.Trace, error) {
	sys, err := r.waterSystem(mols)
	if err != nil {
		return nil, err
	}
	return r.trace(fmt.Sprintf("w%d", mols), sys)
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner) (string, error)
}

// Experiments returns every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: new values of sum under both execution orders", (*Runner).Table1},
		{"table2", "Table 2: analysis statistics for Barnes-Hut", (*Runner).Table2},
		{"table3", "Table 3: execution times for Barnes-Hut", (*Runner).Table3},
		{"fig17", "Figure 17: speedup for Barnes-Hut", (*Runner).Fig17},
		{"table4", "Table 4: parallelism coverage for Barnes-Hut", (*Runner).Table4},
		{"table5", "Table 5: parallel construct overhead", (*Runner).Table5},
		{"table6", "Table 6: granularities for Barnes-Hut", (*Runner).Table6},
		{"fig18", "Figure 18: cumulative time breakdowns for Barnes-Hut", (*Runner).Fig18},
		{"table7", "Table 7: execution times for explicitly parallel Barnes-Hut", (*Runner).Table7},
		{"table8", "Table 8: analysis statistics for Water", (*Runner).Table8},
		{"table9", "Table 9: execution times for Water", (*Runner).Table9},
		{"fig19", "Figure 19: speedup for Water", (*Runner).Fig19},
		{"table10", "Table 10: parallelism coverage for Water", (*Runner).Table10},
		{"table11", "Table 11: granularities for Water", (*Runner).Table11},
		{"fig20", "Figure 20: cumulative time breakdowns for Water", (*Runner).Fig20},
		{"table12", "Table 12: execution times for explicitly parallel Water", (*Runner).Table12},
		{"ablation-aux", "Ablation: auxiliary-operation recognition disabled", (*Runner).AblationAux},
		{"ablation-ec", "Ablation: extent-constant extension disabled", (*Runner).AblationEC},
		{"ablation-locks", "Ablation: lock hoisting/elimination disabled", (*Runner).AblationLocks},
		{"ablation-suppress", "Ablation: nested-concurrency suppression disabled", (*Runner).AblationSuppress},
		{"replication", "Extension: §6.3.4 automatic accumulator replication", (*Runner).Replication},
		{"depbase", "Baseline: type-based data dependence analysis", (*Runner).DepBase},
	}
}

// Run executes one experiment by ID.
func (r *Runner) Run(id string) (string, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			body, err := e.Run(r)
			if err != nil {
				return "", fmt.Errorf("%s: %w", e.ID, err)
			}
			return "## " + e.Title + "\n\n" + body, nil
		}
	}
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	return "", fmt.Errorf("unknown experiment %q (have: %s)", id, strings.Join(ids, ", "))
}

// RunAll executes every experiment in order.
func (r *Runner) RunAll() (string, error) {
	var sb strings.Builder
	for _, e := range Experiments() {
		out, err := r.Run(e.ID)
		if err != nil {
			return sb.String(), err
		}
		sb.WriteString(out)
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

// ---------------------------------------------------------------------
// Formatting helpers

// table renders rows with aligned columns.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len([]rune(h))
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(pad(c, widths[i]))
		}
		sb.WriteString("\n")
	}
	writeRow(header)
	var sep []string
	for _, w := range widths {
		sep = append(sep, strings.Repeat("-", w))
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

func pad(s string, w int) string {
	n := w - len([]rune(s))
	if n <= 0 {
		return s
	}
	return s + strings.Repeat(" ", n)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// secs converts simulated microseconds to seconds.
func secs(us float64) string { return fmt.Sprintf("%.3f", us/1e6) }

// serialMicros returns the pure serial execution time of a trace (no
// parallel overheads at all).
func serialMicros(tr *tracer.Trace) float64 {
	params := simdash.DefaultParams(1)
	return float64(tr.SerialUnits()+tr.ParallelUnits()) * params.UnitMicros
}
