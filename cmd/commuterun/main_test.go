package main

import (
	"strings"
	"testing"
	"time"

	"commute/internal/rt"
)

func TestModeConflict(t *testing.T) {
	for _, tc := range []struct {
		mode        string
		spec        rt.SpecMode
		conditional bool
		maxSteps    int64
		timeout     time.Duration
		want        string // "" or the flag the message must name
	}{
		{"parallel", rt.SpecForce, true, 1000, time.Second, ""},
		{"serial", rt.SpecOff, false, 0, 0, ""},
		{"serial", rt.SpecOff, false, 0, time.Second, ""},
		{"simulate", rt.SpecOff, false, 0, 0, ""},
		{"serial", rt.SpecForce, false, 0, 0, "-speculate force requires -mode parallel"},
		{"simulate", rt.SpecAuto, true, 0, 0, "-speculate auto requires -mode parallel"},
		{"serial", rt.SpecOff, true, 0, 0, "-conditional on requires -mode parallel"},
		{"simulate", rt.SpecOff, true, 0, 0, "-conditional on requires -mode parallel"},
		{"serial", rt.SpecOff, false, 1000, 0, "-maxsteps requires -mode parallel"},
		{"simulate", rt.SpecOff, false, 1000, time.Second, "-maxsteps requires -mode parallel"},
		{"simulate", rt.SpecOff, false, 0, time.Second, "-timeout does not apply to -mode simulate"},
	} {
		got := modeConflict(tc.mode, tc.spec, tc.conditional, tc.maxSteps, tc.timeout)
		if (tc.want == "") != (got == "") || !strings.HasPrefix(got, tc.want) {
			t.Errorf("-mode %s -speculate %s conditional=%t -maxsteps %d -timeout %v: %q, want %q",
				tc.mode, tc.spec, tc.conditional, tc.maxSteps, tc.timeout, got, tc.want)
		}
	}
}
