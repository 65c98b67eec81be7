package main

import (
	"strings"
	"testing"

	"commute/internal/rt"
)

func TestModeConflict(t *testing.T) {
	for _, tc := range []struct {
		mode        string
		spec        rt.SpecMode
		conditional bool
		want        string // "" or the flag the message must name
	}{
		{"parallel", rt.SpecForce, true, ""},
		{"serial", rt.SpecOff, false, ""},
		{"simulate", rt.SpecOff, false, ""},
		{"serial", rt.SpecForce, false, "-speculate force requires -mode parallel"},
		{"simulate", rt.SpecAuto, true, "-speculate auto requires -mode parallel"},
		{"serial", rt.SpecOff, true, "-conditional on requires -mode parallel"},
		{"simulate", rt.SpecOff, true, "-conditional on requires -mode parallel"},
	} {
		got := modeConflict(tc.mode, tc.spec, tc.conditional)
		if (tc.want == "") != (got == "") || !strings.HasPrefix(got, tc.want) {
			t.Errorf("-mode %s -speculate %s conditional=%t: %q, want %q", tc.mode, tc.spec, tc.conditional, got, tc.want)
		}
	}
}
