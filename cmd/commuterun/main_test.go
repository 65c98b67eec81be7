package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"commute"
	"commute/internal/rt"
	"commute/internal/server/api"
)

func TestModeConflict(t *testing.T) {
	for _, tc := range []struct {
		mode        string
		spec        rt.SpecMode
		conditional bool
		maxSteps    int64
		want        string // "" or the flag the message must name
	}{
		{"parallel", rt.SpecForce, true, 1000, ""},
		{"serial", rt.SpecOff, false, 0, ""},
		{"simulate", rt.SpecOff, false, 0, ""},
		{"serial", rt.SpecForce, false, 0, "-speculate force requires -mode parallel"},
		{"simulate", rt.SpecAuto, true, 0, "-speculate auto requires -mode parallel"},
		{"serial", rt.SpecOff, true, 0, "-conditional on requires -mode parallel"},
		{"simulate", rt.SpecOff, true, 0, "-conditional on requires -mode parallel"},
		{"serial", rt.SpecOff, false, 1000, "-maxsteps requires -mode parallel"},
		{"simulate", rt.SpecOff, false, 1000, "-maxsteps requires -mode parallel"},
	} {
		got := modeConflict(tc.mode, tc.spec, tc.conditional, tc.maxSteps)
		if (tc.want == "") != (got == "") || !strings.HasPrefix(got, tc.want) {
			t.Errorf("-mode %s -speculate %s conditional=%t -maxsteps %d: %q, want %q",
				tc.mode, tc.spec, tc.conditional, tc.maxSteps, got, tc.want)
		}
	}
}

// TestSimulateTimeout: -mode simulate honours -timeout. The trace run of
// a program that never ends stops at the deadline with its error.
func TestSimulateTimeout(t *testing.T) {
	sys, err := commute.Load("spin.mc", "void main() {\n  while (TRUE) {\n  }\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	err = simulate(ctx, sys, []int{1, 2}, io.Discard)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("simulate of a non-terminating program: %v, want the deadline", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("the deadline took %v to stop the trace run", d)
	}
}

// TestWorkersOutOfRange: -mode parallel with a worker count outside
// [1, api.MaxRunWorkers] exits 2 with /v1/run's message before the
// program loads, so nothing runs and nothing reaches stdout. The test
// binary runs main in a child process, its arguments in the
// environment.
func TestWorkersOutOfRange(t *testing.T) {
	if args := os.Getenv("COMMUTERUN_TEST_ARGS"); args != "" {
		os.Args = append([]string{"commuterun"}, strings.Fields(args)...)
		main()
		return
	}
	for _, n := range []int{0, -3, api.MaxRunWorkers + 1} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestWorkersOutOfRange$")
		cmd.Env = append(os.Environ(), fmt.Sprintf("COMMUTERUN_TEST_ARGS=-mode parallel -workers %d -stats-json -app graph", n))
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-workers %d: %v, want exit status 2", n, err)
		}
		if want := api.CheckWorkers(n).Error() + "\n"; stderr.String() != want || stdout.Len() != 0 {
			t.Errorf("-workers %d: stdout %q, stderr %q; want nothing and %q", n, stdout.String(), stderr.String(), want)
		}
	}
}
