package rt_test

import (
	"bytes"
	"fmt"
	"testing"

	"commute/internal/analysis/effects"
	"commute/internal/apps/src"
	"commute/internal/interp"
	"commute/internal/nativegen"
	"commute/internal/oracle"
	"commute/internal/rt"
)

// TestUndeclaredWriteAborts reaches the journal's third check, which no
// shipped program trips: SpecDisjoint's tasks never conflict, but with
// cell.val taken out of the root's declared writes every set is an
// access the analysis never reasoned about. Through either front end —
// the interpreter's monitor and the emitted SJ_ versions, both keyed by
// codegen.Plan.SpecKeys — the one region aborts, nothing commits, and
// the serial rerun leaves the serial walker's state.
func TestUndeclaredWriteAborts(t *testing.T) {
	sys := oracle.ClearWork(oracle.Load(t, "specdisjoint.mc", src.SpecDisjoint))
	val := effects.FieldDesc(sys.Prog.Classes["cell"], nil, "val")
	for _, mp := range sys.Plan.Methods {
		if mp.Speculative && mp.SpecWrites.OverlapsDesc(val) {
			mp.SpecWrites = mp.SpecWrites.Filter(func(d effects.Desc) bool { return !effects.NewSet(d).OverlapsDesc(val) })
		}
	}
	want := oracle.Reference(t, sys.Prog)

	for _, workers := range []int{1, 4} {
		r := rt.New(interp.New(sys.Code(), new(bytes.Buffer)), sys.Plan, workers)
		r.Speculate = rt.SpecForce
		if err := r.Run(); err != nil {
			t.Fatalf("interpreter workers=%d: %v", workers, err)
		}
		if got := state(r); r.Stats.SpeculationAborts != 1 || r.Stats.SpeculationCommits != 0 || got != want {
			t.Errorf("interpreter workers=%d: %d aborts, %d commits, want 1 and 0; state\n got: %q\nwant: %q",
				workers, r.Stats.SpeculationAborts, r.Stats.SpeculationCommits, got, want)
		}
	}

	if !nativegen.HaveGo() {
		t.Skip("go toolchain not available: interpreter half only")
	}
	dir := t.TempDir()
	if err := nativegen.Generate(sys, "undeclared", dir); err != nil {
		t.Fatal(err)
	}
	bin, err := nativegen.Build(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		out, errOut, err := nativegen.RunErr(bin, "-mode", "parallel",
			"-workers", fmt.Sprint(workers), "-speculate", "force", "-specstats", "-dump")
		if err != nil {
			t.Fatalf("native workers=%d: %v", workers, err)
		}
		if st := nativegen.CounterStats(errOut); st["spec_aborts"] != 1 || st["spec_commits"] != 0 || out != want {
			t.Errorf("native workers=%d: counters %v, want one abort and no commit; state\n got: %q\nwant: %q",
				workers, st, out, want)
		}
	}
}
