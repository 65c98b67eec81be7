package rt_test

// Differential tests for conditional commutativity: guarded regions
// must be observationally identical to the serial program whichever
// way the guard sends them — parallel under a true guard, the serial
// path under a false one, or speculation when a false guard meets
// SpecForce.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/frontend/types"
	"commute/internal/interp"
	"commute/internal/rt"
)

// buildCond compiles a program with the conditional-guard plan
// extension (plus speculation, matching commute.System.CondPlan).
func buildCond(t testing.TB, source string) (*types.Program, *codegen.Plan) {
	t.Helper()
	prog, plan := planAsBuilt(t, source, fullPlan)
	return prog, clearWork(plan)
}

// condHashState reads every bucket's (count, touched) plus the table
// checksum — the complete integer state of the condhash program.
func condHashState(t *testing.T, prog *types.Program, ip *interp.Interp) []int64 {
	t.Helper()
	h := ip.Globals["H"]
	tableCl := prog.Classes["table"]
	bucketCl := prog.Classes["bucket"]
	slots := h.Slots[ip.FieldSlot(tableCl, "table", "slots")].Array()
	var out []int64
	for _, sv := range slots.Elems {
		b := sv.Object()
		out = append(out,
			b.Slots[ip.FieldSlot(bucketCl, "bucket", "count")].Int(),
			b.Slots[ip.FieldSlot(bucketCl, "bucket", "touched")].Int())
	}
	out = append(out, h.Slots[ip.FieldSlot(tableCl, "table", "checksum")].Int())
	return out
}

// condReference runs the program serially on the tree walker — the
// reference every parallel run below is compared against — and returns
// its print output and final condhash state.
func condReference(t *testing.T, prog *types.Program) (string, []int64) {
	t.Helper()
	var buf bytes.Buffer
	ip := interp.NewEngine(prog, &buf, interp.EngineWalk)
	if err := ip.Run(ip.NewCtx()); err != nil {
		t.Fatal(err)
	}
	return buf.String(), condHashState(t, prog, ip)
}

// TestConditionalGuardTrueBitIdentical: in accumulate mode the
// synthesized guard holds, every guarded region runs in parallel, and
// output and state are bit-identical to the serial walker's across
// worker counts.
func TestConditionalGuardTrueBitIdentical(t *testing.T) {
	prog, plan := buildCond(t, src.CondHashBase+src.CondHashMain(0, 6))
	ingest := prog.MethodByFullName("table::ingest")
	mp := plan.Methods[ingest]
	if mp == nil || !mp.Conditional || mp.Guard == nil {
		t.Fatalf("table::ingest not planned conditional: %+v", mp)
	}

	want, wantState := condReference(t, prog)
	for _, workers := range []int{1, 2, 4} {
		var buf bytes.Buffer
		ip := interp.New(prog, &buf)
		rr := rt.New(ip, plan, workers)
		rr.Conditional = true
		if err := rr.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := buf.String(); got != want {
			t.Errorf("workers=%d: output %q, want %q", workers, got, want)
		}
		if got := condHashState(t, prog, ip); !slices.Equal(got, wantState) {
			t.Errorf("workers=%d: state %v, want %v", workers, got, wantState)
		}
		if rr.Stats.GuardParallel == 0 {
			t.Errorf("workers=%d: true guard never took the parallel path", workers)
		}
		if rr.Stats.GuardSerial != 0 {
			t.Errorf("workers=%d: true guard took %d serial paths", workers, rr.Stats.GuardSerial)
		}
		if rr.Stats.Regions == 0 {
			t.Errorf("workers=%d: no parallel regions under a true guard", workers)
		}
	}
}

// TestConditionalGuardFalseSerialPath: in overwrite mode the guard
// fails at every region entry — each entry increments GuardSerial,
// creates no region (and no speculation), and the result is
// bit-identical to the serial run.
func TestConditionalGuardFalseSerialPath(t *testing.T) {
	const rounds = 6
	prog, plan := buildCond(t, src.CondHashBase+src.CondHashMain(3, rounds))

	want, wantState := condReference(t, prog)
	for _, workers := range []int{1, 2, 4} {
		var buf bytes.Buffer
		ip := interp.New(prog, &buf)
		rr := rt.New(ip, plan, workers)
		rr.Conditional = true
		if err := rr.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := buf.String(); got != want {
			t.Errorf("workers=%d: output %q, want %q", workers, got, want)
		}
		if got := condHashState(t, prog, ip); !slices.Equal(got, wantState) {
			t.Errorf("workers=%d: state %v, want %v", workers, got, wantState)
		}
		if rr.Stats.GuardSerial != rounds {
			t.Errorf("workers=%d: GuardSerial = %d, want %d (one per region entry)",
				workers, rr.Stats.GuardSerial, rounds)
		}
		if rr.Stats.GuardParallel != 0 {
			t.Errorf("workers=%d: false guard ran %d parallel regions", workers, rr.Stats.GuardParallel)
		}
		if rr.Stats.Regions != 0 || rr.Stats.SpeculativeRegions != 0 {
			t.Errorf("workers=%d: serial path created regions (%+v)", workers, rr.Stats)
		}
	}
}

// TestConditionalGuardFalseSpeculatesUnderForce: a false guard hands a
// spec-eligible extent to the speculation machinery under SpecForce
// instead of the plain serial path — and whether the regions commit or
// abort, the state stays bit-identical to serial.
func TestConditionalGuardFalseSpeculatesUnderForce(t *testing.T) {
	prog, plan := buildCond(t, src.CondHashBase+src.CondHashMain(3, 6))

	want, wantState := condReference(t, prog)
	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		ip := interp.New(prog, &buf)
		rr := rt.New(ip, plan, workers)
		rr.Conditional = true
		rr.Speculate = rt.SpecForce
		if err := rr.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := buf.String(); got != want {
			t.Errorf("workers=%d: output %q, want %q", workers, got, want)
		}
		if got := condHashState(t, prog, ip); !slices.Equal(got, wantState) {
			t.Errorf("workers=%d: state %v, want %v", workers, got, wantState)
		}
		if rr.Stats.GuardSerial == 0 {
			t.Errorf("workers=%d: guard never evaluated false", workers)
		}
		if rr.Stats.SpeculativeRegions == 0 {
			t.Errorf("workers=%d: false guard under SpecForce never speculated", workers)
		}
		if rr.Stats.SpeculationCommits+rr.Stats.SpeculationAborts != rr.Stats.SpeculativeRegions {
			t.Errorf("workers=%d: speculation stats don't balance (%+v)", workers, rr.Stats)
		}
	}
}

// TestConditionalOffLeavesGuardsAlone: with Runtime.Conditional off a
// conditional extent is just an unproven one — the guard is never
// evaluated and no guard counter moves, whichever way it would have
// gone; the speculation policy alone decides between a speculative
// region and the serial version.
func TestConditionalOffLeavesGuardsAlone(t *testing.T) {
	const rounds = 6
	for _, mode := range []int{0, 3} {
		prog, plan := buildCond(t, src.CondHashBase+src.CondHashMain(mode, rounds))
		want, wantState := condReference(t, prog)
		for _, spec := range []rt.SpecMode{rt.SpecOff, rt.SpecAuto, rt.SpecForce} {
			var buf bytes.Buffer
			ip := interp.New(prog, &buf)
			rr := rt.New(ip, plan, 4)
			rr.Speculate = spec
			if err := rr.Run(); err != nil {
				t.Fatalf("mode=%d speculate=%v: %v", mode, spec, err)
			}
			if got := buf.String(); got != want {
				t.Errorf("mode=%d speculate=%v: output %q, want %q", mode, spec, got, want)
			}
			if got := condHashState(t, prog, ip); !slices.Equal(got, wantState) {
				t.Errorf("mode=%d speculate=%v: state %v, want %v", mode, spec, got, wantState)
			}
			st := rr.Stats
			if st.GuardParallel != 0 || st.GuardSerial != 0 {
				t.Errorf("mode=%d speculate=%v: guard counters moved with the policy off (%+v)", mode, spec, st)
			}
			wantSpec := int64(0)
			if spec != rt.SpecOff {
				wantSpec = rounds
			}
			if st.SpeculativeRegions != wantSpec || st.Regions != wantSpec {
				t.Errorf("mode=%d speculate=%v: %d regions, %d speculative; want %d of each", mode, spec, st.Regions, st.SpeculativeRegions, wantSpec)
			}
		}
	}
}

// genConditionalProgram is genCommutingProgram with the additive update
// made conditional on a mode field frozen in setup — the same shape as
// the condhash app, but over random target/amount patterns. mode 0
// keeps the update commuting (guard true); any other mode makes it an
// order-dependent overwrite (guard false, serial path).
func genConditionalProgram(r *rand.Rand, counters, updates, mode int) string {
	s := genCommutingProgram(r, counters, updates)
	s = strings.Replace(s, "class driver {\npublic:\n", "class driver {\npublic:\n  int mode;\n", 1)
	s = strings.Replace(s, "void driver::setup() {\n  int i;\n",
		fmt.Sprintf("void driver::setup() {\n  int i;\n  mode = %d;\n", mode), 1)
	s = strings.Replace(s, "adds = adds + k;",
		"if (D.mode == 0) {\n    adds = adds + k;\n  } else {\n    adds = k;\n  }", 1)
	return s
}

// TestRandomConditionalPrograms: random conditional programs agree
// bit-exactly with their serial walker runs at several worker counts,
// with the guard outcome matching the generated mode.
func TestRandomConditionalPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(91011))
	for trial := 0; trial < 6; trial++ {
		counters := 2 + r.Intn(6)
		updates := 8 + r.Intn(40)
		mode := trial % 2
		source := genConditionalProgram(r, counters, updates, mode)
		prog, plan := buildCond(t, source)

		runAll := prog.MethodByFullName("driver::runAll")
		if mp := plan.Methods[runAll]; mp == nil || !mp.Conditional {
			t.Fatalf("trial %d: conditional update loop not planned conditional (%+v)", trial, mp)
		}

		ipSerial := interp.NewEngine(prog, nil, interp.EngineWalk)
		if err := ipSerial.Run(ipSerial.NewCtx()); err != nil {
			t.Fatalf("trial %d serial: %v", trial, err)
		}
		want := counterState(t, prog, ipSerial, counters)

		for _, workers := range []int{1, 2, 4} {
			ip := interp.New(prog, nil)
			rr := rt.New(ip, plan, workers)
			rr.Conditional = true
			if err := rr.Run(); err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if got := counterState(t, prog, ip, counters); !slices.Equal(got, want) {
				t.Fatalf("trial %d workers=%d mode=%d: state %v, want serial %v",
					trial, workers, mode, got, want)
			}
			if mode == 0 {
				if rr.Stats.GuardParallel == 0 || rr.Stats.GuardSerial != 0 {
					t.Fatalf("trial %d workers=%d: mode 0 guard outcome wrong (%+v)", trial, workers, rr.Stats)
				}
			} else {
				if rr.Stats.GuardSerial == 0 || rr.Stats.GuardParallel != 0 || rr.Stats.Regions != 0 {
					t.Fatalf("trial %d workers=%d: mode %d guard outcome wrong (%+v)", trial, workers, mode, rr.Stats)
				}
			}
		}
	}
}
