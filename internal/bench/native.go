package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"commute"
	"commute/internal/apps"
	"commute/internal/apps/src"
	"commute/internal/nativegen"
)

// nativeBenchReps is how many timed repetitions the generated driver's
// -bench flag runs per experiment (after one warm-up).
const nativeBenchReps = 10

// nativePerf appends the native-backend results: each application is
// compiled to a standalone Go binary with EmitGoPackage, and the
// binary's own -bench loop reports ns/op — true hardware-speed numbers
// with no interpreter in the loop, comparable in the report against
// the compiled-closure and tree-walking engines on the same workloads.
// Skipped silently when the Go toolchain is unavailable.
func nativePerf(rep *PerfReport) error {
	if !nativegen.HaveGo() {
		return nil
	}
	tmp, err := os.MkdirTemp("", "commute-native-bench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	for _, a := range []struct{ name string }{{"barneshut"}, {"water"}} {
		sys, err := loadBenchApp(a.name)
		if err != nil {
			return fmt.Errorf("native %s: %w", a.name, err)
		}
		dir := filepath.Join(tmp, a.name)
		if err := nativegen.Generate(sys, a.name, dir); err != nil {
			return fmt.Errorf("native %s: %w", a.name, err)
		}
		bin, err := nativegen.Build(dir)
		if err != nil {
			return fmt.Errorf("native %s: %w", a.name, err)
		}
		for _, c := range []struct {
			suffix string
			args   []string
		}{
			{"serial", []string{"-mode", "serial"}},
			{"parallel-stealing", []string{"-mode", "parallel", "-workers", strconv.Itoa(perfWorkers)}},
		} {
			args := append(append([]string{}, c.args...), "-bench", strconv.Itoa(nativeBenchReps))
			out, err := nativegen.Run(bin, args...)
			if err != nil {
				return fmt.Errorf("native %s %s: %w", a.name, c.suffix, err)
			}
			ns, err := parseNsPerOp(out)
			if err != nil {
				return fmt.Errorf("native %s %s: %w", a.name, c.suffix, err)
			}
			rep.Results = append(rep.Results, PerfResult{
				Name:       "native-" + a.name + "-" + c.suffix,
				NsPerOp:    ns,
				Iterations: nativeBenchReps,
			})
		}
	}
	return nativeSpecPerf(rep, tmp)
}

// nativeSpecPerf appends the spec-native-* results: the speculation
// workloads compiled through the journaled SJ_ lowering, timed with
// speculation off (rejected extents serial) and forced, on the
// commit-heavy disjoint program and the abort-heavy conflict one.
func nativeSpecPerf(rep *PerfReport, tmp string) error {
	for _, a := range []struct {
		name     string
		src      string
		policies []string
	}{
		// The conflict program's off run is a trivial serial loop with no
		// speculation machinery in it — nanoseconds of noise, useless to
		// gate — so only the abort-and-rerun path is timed there.
		{"spec-disjoint", specDisjointBenchSrc, []string{"off", "force"}},
		{"spec-conflict", src.SpecConflict, []string{"force"}},
	} {
		sys, err := commute.Load(a.name+".mc", a.src)
		if err != nil {
			return fmt.Errorf("native %s: %w", a.name, err)
		}
		dir := filepath.Join(tmp, a.name)
		if err := nativegen.Generate(sys, a.name, dir); err != nil {
			return fmt.Errorf("native %s: %w", a.name, err)
		}
		bin, err := nativegen.Build(dir)
		if err != nil {
			return fmt.Errorf("native %s: %w", a.name, err)
		}
		for _, policy := range a.policies {
			out, err := nativegen.Run(bin, "-mode", "parallel",
				"-workers", strconv.Itoa(perfWorkers), "-speculate", policy,
				"-bench", strconv.Itoa(nativeBenchReps))
			if err != nil {
				return fmt.Errorf("native %s %s: %w", a.name, policy, err)
			}
			ns, err := parseNsPerOp(out)
			if err != nil {
				return fmt.Errorf("native %s %s: %w", a.name, policy, err)
			}
			rep.Results = append(rep.Results, PerfResult{
				Name:       "spec-native-" + a.name[len("spec-"):] + "-" + policy,
				NsPerOp:    ns,
				Iterations: nativeBenchReps,
			})
		}
	}
	return nil
}

// loadBenchApp loads an application at the same workload the
// interpreter perf cases use, so the native-* numbers compare like
// for like with barneshut-*/water-*.
func loadBenchApp(name string) (*commute.System, error) {
	switch name {
	case "barneshut":
		return apps.BarnesHut(256, 1)
	case "water":
		return apps.Water(64, 1)
	}
	return nil, fmt.Errorf("unknown bench app %q", name)
}

// parseNsPerOp extracts the driver's "ns_per_op N" line.
func parseNsPerOp(out string) (int64, error) {
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "ns_per_op "); ok {
			return strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, fmt.Errorf("no ns_per_op line in output %q", out)
}
