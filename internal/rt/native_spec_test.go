package rt_test

import (
	"bytes"
	"fmt"
	"go/format"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"commute/internal/analysis/effects"
	"commute/internal/apps/src"
	"commute/internal/frontend/types"
	"commute/internal/interp"
	"commute/internal/nativegen"
	"commute/internal/rt"
)

// interpSerialDump runs the program serially on the tree walker and
// returns its output followed by the state dump — the byte stream the
// native binary's -dump produces.
func interpSerialDump(t *testing.T, prog *types.Program) string {
	t.Helper()
	var buf bytes.Buffer
	ip := interp.NewEngine(prog, &buf, interp.EngineWalk)
	if err := ip.Run(ip.NewCtx()); err != nil {
		t.Fatalf("serial walk: %v", err)
	}
	nativegen.DumpInterp(&buf, prog, ip)
	return buf.String()
}

// assertGofmt checks the prog.go a test wrote to dir: the emitter runs
// no formatter, so the file must be gofmt's fixed point as written.
func assertGofmt(t *testing.T, dir string) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(dir, "prog.go"))
	if fmted, ferr := format.Source(src); err != nil || ferr != nil || !bytes.Equal(fmted, src) {
		t.Errorf("%s/prog.go is not in gofmt's form (read: %v, format: %v)", dir, err, ferr)
	}
}

// TestNativeRandomSpeculation promotes the random rejected-program and
// guaranteed-violator generators to the native backend: the emitted
// journaled code must reproduce the serial interpreter state byte for
// byte whether each speculative region commits or aborts, and the
// commit/abort counters must balance (violators: all aborts).
func TestNativeRandomSpeculation(t *testing.T) {
	if !nativegen.HaveGo() {
		t.Skip("go toolchain not available")
	}
	r := rand.New(rand.NewSource(424242))
	for _, tc := range []struct {
		name     string
		source   string
		violator bool
	}{
		{"rejected0", genRejectedProgram(r, 3, 16), false},
		{"rejected1", genRejectedProgram(r, 5, 32), false},
		{"violator0", genViolatingProgram(r, 4), true},
	} {
		prog, plan := buildSpec(t, tc.source)
		want := interpSerialDump(t, prog)

		dir := t.TempDir()
		if err := nativegen.GeneratePlan(plan, tc.name, dir); err != nil {
			t.Fatalf("%s: generate: %v", tc.name, err)
		}
		assertGofmt(t, dir)
		bin, err := nativegen.Build(dir)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, err := nativegen.Run(bin, "-mode", "serial", "-dump"); err != nil {
			t.Fatal(err)
		} else if got != want {
			t.Errorf("%s serial: native state diverges from interpreter\n got: %q\nwant: %q", tc.name, got, want)
		}
		for _, workers := range []int{1, 4} {
			out, errOut, err := nativegen.RunErr(bin, "-mode", "parallel",
				"-workers", fmt.Sprint(workers), "-speculate", "force", "-specstats", "-dump")
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if out != want {
				t.Errorf("%s workers=%d: speculative state diverges from serial\n got: %q\nwant: %q",
					tc.name, workers, out, want)
			}
			st := nativegen.CounterStats(errOut)
			if st["spec_regions"] == 0 {
				t.Errorf("%s workers=%d: nothing speculated (%v)", tc.name, workers, st)
			}
			if st["spec_commits"]+st["spec_aborts"] != st["spec_regions"] {
				t.Errorf("%s workers=%d: counters %v don't balance", tc.name, workers, st)
			}
			if tc.violator && st["spec_commits"] != 0 {
				t.Errorf("%s workers=%d: guaranteed conflict committed (%v)", tc.name, workers, st)
			}
			if tc.violator && st["spec_aborts"] == 0 {
				t.Errorf("%s workers=%d: guaranteed conflict did not abort (%v)", tc.name, workers, st)
			}
		}
	}
}

// TestUndeclaredWriteAborts reaches the journal's third check, which no
// shipped program trips: SpecDisjoint's tasks never conflict, but with
// cell.val taken out of the root's declared writes every set is an
// access the analysis never reasoned about. Through either front end —
// the interpreter's monitor and the emitted SJ_ versions, both keyed by
// codegen.Plan.SpecKeys — the one region aborts, nothing commits, and
// the serial rerun leaves the serial walker's state.
func TestUndeclaredWriteAborts(t *testing.T) {
	prog, plan := buildSpec(t, src.SpecDisjoint)
	val := effects.FieldDesc(prog.Classes["cell"], nil, "val")
	for _, mp := range plan.Methods {
		if mp.Speculative && mp.SpecWrites.OverlapsDesc(val) {
			mp.SpecWrites = mp.SpecWrites.Filter(func(d effects.Desc) bool { return !effects.NewSet(d).OverlapsDesc(val) })
		}
	}
	want := interpSerialDump(t, prog)

	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		ip := interp.New(prog, &buf)
		r := rt.New(ip, plan, workers)
		r.Speculate = rt.SpecForce
		if err := r.Run(); err != nil {
			t.Fatalf("interpreter workers=%d: %v", workers, err)
		}
		nativegen.DumpInterp(&buf, prog, ip)
		if r.Stats.SpeculationAborts != 1 || r.Stats.SpeculationCommits != 0 || buf.String() != want {
			t.Errorf("interpreter workers=%d: %d aborts, %d commits, want 1 and 0; state\n got: %q\nwant: %q",
				workers, r.Stats.SpeculationAborts, r.Stats.SpeculationCommits, buf.String(), want)
		}
	}

	if !nativegen.HaveGo() {
		t.Skip("go toolchain not available: interpreter half only")
	}
	dir := t.TempDir()
	if err := nativegen.GeneratePlan(plan, "undeclared", dir); err != nil {
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
