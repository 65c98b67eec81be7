// Package nativegen drives the native Go backend end to end: it writes
// the package EmitGoPackage produces for a plan, shells out to the Go
// toolchain to build it, and runs the resulting binary. The
// differential tests use it to compare native runs against the
// interpreter bit for bit; the benchmark harness uses it for the
// native-* timings.
package nativegen

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"commute"
	"commute/internal/codegen"
)

// HaveGo reports whether the Go toolchain is available. Callers skip
// native tests and benchmarks when it is not.
func HaveGo() bool {
	_, err := exec.LookPath("go")
	return err == nil
}

// CommuteRoot returns the on-disk root of the commute module, for the
// generated go.mod's replace directive. It is derived from this source
// file's compiled-in path, so it is valid whenever the binary was built
// from the repository it points into (tests, and the repo's own CLIs).
func CommuteRoot() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return ""
	}
	// file = <root>/internal/nativegen/nativegen.go
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// Generate emits sys.CondPlan, the plan every parallel execution runs,
// as a buildable Go module in dir.
func Generate(sys *commute.System, app, dir string) error {
	return GeneratePlan(sys.CondPlan, app, dir)
}

// GeneratePlan emits an explicit plan — e.g. one an ablation built with
// its own codegen.Options — as a buildable Go module in dir.
func GeneratePlan(plan *codegen.Plan, app, dir string) error {
	files, err := plan.EmitGoPackage(codegenOpts(app))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Build compiles the generated module in dir and returns the binary
// path.
func Build(dir string) (string, error) {
	bin := filepath.Join(dir, "app")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
}

// BuildRace compiles the generated module with the race detector.
func BuildRace(dir string) (string, error) {
	bin := filepath.Join(dir, "app_race")
	cmd := exec.Command("go", "build", "-race", "-o", bin, ".")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build -race: %v\n%s", err, out)
	}
	return bin, nil
}

// Run executes the generated binary and returns its stdout (program
// output, plus the state dump when -dump is among args).
func Run(bin string, args ...string) (string, error) {
	out, _, err := RunErr(bin, args...)
	return out, err
}

// RunErr executes the generated binary and returns stdout and stderr
// separately — the counter flags (-specstats, -guardstats) report on
// stderr so the state dump on stdout stays byte-comparable.
func RunErr(bin string, args ...string) (string, string, error) {
	cmd := exec.Command(bin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return stdout.String(), stderr.String(),
			fmt.Errorf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String(), stderr.String(), nil
}

// CounterStats parses "name value" lines (the -specstats / -guardstats
// stderr format) into a map.
func CounterStats(stderr string) map[string]int64 {
	out := map[string]int64{}
	for _, line := range strings.Split(stderr, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(f[1], "%d", &v); err == nil {
			out[f[0]] = v
		}
	}
	return out
}
