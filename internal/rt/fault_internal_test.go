package rt

import (
	"errors"
	"strings"
	"testing"
	"time"

	"commute/internal/frontend/ast"
	"commute/internal/interp"
)

// TestFaultPlanDeterministicSequence: two plans with the same seed and
// triggers make identical decisions over the same event sequence, so a
// failing injection run replays exactly.
func TestFaultPlanDeterministicSequence(t *testing.T) {
	mk := func() *FaultPlan {
		return &FaultPlan{
			Seed:         99,
			PanicRate:    0.3,
			PanicOnSpawn: 7,
			DelayOnSpawn: time.Millisecond,
			DelayRate:    0.5,
		}
	}
	a, b := mk(), mk()
	for i := 0; i < 200; i++ {
		da, ca, pa := a.atSpawn()
		db, cb, pb := b.atSpawn()
		if da != db || ca != cb || pa != pb {
			t.Fatalf("event %d diverged: (%v,%v,%d) vs (%v,%v,%d)", i, da, ca, pa, db, cb, pb)
		}
	}
}

// TestFaultPlanCountTriggers: count-based triggers fire exactly once,
// at exactly the configured event.
func TestFaultPlanCountTriggers(t *testing.T) {
	fp := &FaultPlan{PanicOnChunk: 3, PanicOnLock: 2}
	for i := int64(1); i <= 5; i++ {
		got := fp.atChunk()
		want := int64(0)
		if i == 3 {
			want = 3
		}
		if got != want {
			t.Errorf("atChunk #%d = %d, want %d", i, got, want)
		}
	}
	for i := int64(1); i <= 5; i++ {
		got := fp.atLock()
		want := int64(0)
		if i == 2 {
			want = 2
		}
		if got != want {
			t.Errorf("atLock #%d = %d, want %d", i, got, want)
		}
	}
}

// TestFaultPlanCancelTrigger: CancelOnSpawn fires on exactly the Nth
// task start.
func TestFaultPlanCancelTrigger(t *testing.T) {
	fp := &FaultPlan{CancelOnSpawn: 2}
	for i := int64(1); i <= 4; i++ {
		_, cancel, _ := fp.atSpawn()
		if cancel != (i == 2) {
			t.Errorf("atSpawn #%d cancel = %v", i, cancel)
		}
	}
}

// TestParallelLoopRejectsNonPositiveStep: a step ≤ 0 is a RuntimeError
// from the loop dispatcher, not a division-by-zero panic in the chunk
// computation (or an infinite claim loop for negative steps).
func TestParallelLoopRejectsNonPositiveStep(t *testing.T) {
	rt := &Runtime{Workers: 2}
	fs := &ast.ForStmt{Init: &ast.DeclStmt{Name: "i"}}
	for _, step := range []int64{0, -1} {
		err := rt.parallelLoop(nil, false, 0, fs, nil, 0, 10, step)
		if err == nil {
			t.Fatalf("step=%d accepted", step)
		}
		var re *interp.RuntimeError
		if !errors.As(err, &re) {
			t.Fatalf("step=%d: err = %T %v, want *interp.RuntimeError", step, err, err)
		}
		if !strings.Contains(err.Error(), "non-positive step") {
			t.Errorf("step=%d: err = %v, want a non-positive-step message", step, err)
		}
	}
}
