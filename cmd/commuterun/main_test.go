package main

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"commute"
	"commute/internal/rt"
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
