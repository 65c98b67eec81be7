package nativegen_test

import (
	"bytes"
	"fmt"
	"go/format"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"commute"
	"commute/internal/apps"
	"commute/internal/apps/src"
	"commute/internal/interp"
	"commute/internal/nativegen"
)

// buildOnce generates and builds each application a single time and
// shares the binary across tests.
type builtApp struct {
	once sync.Once
	sys  *commute.System
	bin  string
	err  error
}

var built = map[string]*builtApp{
	"barneshut": {},
	"water":     {},
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

func getApp(t *testing.T, name string) (*commute.System, string) {
	t.Helper()
	if !nativegen.HaveGo() {
		t.Skip("go toolchain not available")
	}
	ba := built[name]
	ba.once.Do(func() {
		var sys *commute.System
		var err error
		switch name {
		case "barneshut":
			sys, err = apps.BarnesHut(64, 1)
		case "water":
			sys, err = apps.Water(27, 1)
		}
		if err != nil {
			ba.err = err
			return
		}
		dir, err := os.MkdirTemp("", "nativegen-"+name+"-*")
		if err != nil {
			ba.err = err
			return
		}
		// Keep the dir for the whole test binary's lifetime; the OS
		// cleans the tempdir. (t.TempDir would tear it down after the
		// first test that built it.)
		if err := nativegen.Generate(sys, name, dir); err != nil {
			ba.err = err
			return
		}
		assertGofmt(t, dir)
		ba.bin, ba.err = nativegen.Build(dir)
		ba.sys = sys
	})
	if ba.err != nil {
		t.Fatalf("build %s: %v", name, ba.err)
	}
	return ba.sys, ba.bin
}

// emitsGSS reports whether the prog.go a test wrote to dir lowers any
// loop to guided self-scheduling.
func emitsGSS(t *testing.T, dir string) bool {
	t.Helper()
	text, err := os.ReadFile(filepath.Join(dir, "prog.go"))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Contains(text, []byte("nativert.GSSOn(")) || bytes.Contains(text, []byte("nativert.SpecGSS("))
}

// loadRegions loads a program and clears the static work estimates of
// the plan every execution runs, so that its region roots open (and are
// emitted as) regions however small it is: the tests that use it check
// guards, journals, commits and aborts on the shipped demonstrators,
// which the granularity cutoff would otherwise run serially.
// TestPolicyParity runs each program both ways.
func loadRegions(t *testing.T, name, code string) *commute.System {
	t.Helper()
	sys, err := commute.Load(name, code)
	if err != nil {
		t.Fatal(err)
	}
	clearWork(sys)
	return sys
}

func clearWork(sys *commute.System) {
	for _, mp := range sys.CondPlan.Methods {
		mp.Work = 0
	}
}

// interpDump runs the app serially under the given interpreter engine
// and returns program output followed by the state dump — the same
// byte stream the native binary produces with -dump.
func interpDump(t *testing.T, sys *commute.System, eng interp.Engine) string {
	t.Helper()
	var buf strings.Builder
	ip, err := sys.RunSerialEngine(eng, &buf)
	if err != nil {
		t.Fatalf("interpreter run: %v", err)
	}
	nativegen.DumpInterp(&buf, sys.Prog, ip)
	return buf.String()
}

func TestNativeBarnesHutMatchesInterpreter(t *testing.T) {
	sys, bin := getApp(t, "barneshut")
	want := interpDump(t, sys, interp.EngineWalk)
	if got := interpDump(t, sys, interp.EngineCompiled); got != want {
		t.Fatalf("interpreter engines disagree:\n%s", firstDiff(want, got))
	}
	// Serial native must be bit-identical; Barnes-Hut's parallel phases
	// only commute floating point operations whose order the analysis
	// proved irrelevant at the bit level for this workload, so the
	// parallel runs are bit-identical too (and the goldens pin it).
	for _, args := range [][]string{
		{"-mode", "serial", "-dump"},
		{"-mode", "parallel", "-workers", "4", "-dump"},
		{"-mode", "parallel", "-workers", "1", "-dump"},
	} {
		got, err := nativegen.Run(bin, args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if got != want {
			t.Errorf("%v: native state diverges from interpreter:\n%s", args, firstDiff(want, got))
		}
	}
}

func TestNativeWaterMatchesInterpreter(t *testing.T) {
	sys, bin := getApp(t, "water")
	want := interpDump(t, sys, interp.EngineWalk)
	got, err := nativegen.Run(bin, "-mode", "serial", "-dump")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("serial native state diverges from interpreter:\n%s", firstDiff(want, got))
	}
	// Water's parallel phases accumulate into shared force banks and
	// energy sums under locks; the arrival order varies, so floats are
	// compared with a relative tolerance instead of bit equality.
	got, err = nativegen.Run(bin, "-mode", "parallel", "-workers", "4", "-dump")
	if err != nil {
		t.Fatal(err)
	}
	if msg := compareTolerant(want, got, 1e-9); msg != "" {
		t.Errorf("parallel: %s", msg)
	}
}

// TestNativeRaceClean runs the race-instrumented parallel Barnes-Hut;
// any unsynchronized access in the generated code or the scheduler
// aborts the binary with a non-zero exit.
func TestNativeRaceClean(t *testing.T) {
	sys, _ := getApp(t, "barneshut")
	dir := t.TempDir()
	if err := nativegen.Generate(sys, "barneshut", dir); err != nil {
		t.Fatal(err)
	}
	bin, err := nativegen.BuildRace(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nativegen.Run(bin, "-mode", "parallel", "-workers", "4"); err != nil {
		t.Errorf("race run: %v", err)
	}
}

// repeatRegion wraps a shipped speculation demonstrator's region in an
// outer repeat loop: body is the shipped source, global its driver
// object, region the method main repeats and report the one that prints
// the result.
func repeatRegion(body, global, region, report string, rounds int) string {
	main := fmt.Sprintf("void main() {\n  int r;\n  %[1]s.init();\n  for (r = 0; r < %[2]d; r += 1) {\n    %[1]s.%[3]s();\n  }\n  %[1]s.%[4]s();\n}\n",
		global, rounds, region, report)
	return body[:strings.Index(body, "void main()")] + main
}

// TestNativeRaceManyRegions race-runs programs that enter hundreds of
// regions on the run-wide pool — what Barnes-Hut's handful never does:
// the pool, the loop records, the regions and their journals are all
// reused from one region to the next, by different workers. Every
// region is a guarded parallel one (condhash mode 0), a speculative
// commit (spec-disjoint) or a speculative abort (spec-conflict); output
// and final state must equal the serial interpreter's and the outcome
// counters must equal the number of rounds.
func TestNativeRaceManyRegions(t *testing.T) {
	if !nativegen.HaveGo() {
		t.Skip("go toolchain not available")
	}
	const condRounds, specRounds = 512, 256
	for _, tc := range []struct {
		name   string
		code   string
		flags  []string
		counts map[string]int64
	}{
		{"condhash0", src.CondHashBase + src.CondHashMain(0, condRounds),
			[]string{"-conditional", "-guardstats"},
			map[string]int64{"guard_parallel": condRounds, "guard_serial": 0}},
		{"spec-disjoint", repeatRegion(src.SpecDisjoint, "T", "fill", "report", specRounds),
			[]string{"-speculate", "force", "-specstats"},
			map[string]int64{"spec_regions": specRounds, "spec_commits": specRounds, "spec_aborts": 0}},
		{"spec-conflict", repeatRegion(src.SpecConflict, "D", "run", "show", specRounds),
			[]string{"-speculate", "force", "-specstats"},
			map[string]int64{"spec_regions": specRounds, "spec_commits": 0, "spec_aborts": specRounds}},
	} {
		sys := loadRegions(t, tc.name+".mc", tc.code)
		dir := t.TempDir()
		if err := nativegen.Generate(sys, tc.name, dir); err != nil {
			t.Fatal(err)
		}
		bin, err := nativegen.BuildRace(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := interpDump(t, sys, interp.EngineWalk)
		for _, workers := range []string{"1", "4"} {
			args := append([]string{"-mode", "parallel", "-workers", workers, "-dump"}, tc.flags...)
			got, errOut, err := nativegen.RunErr(bin, args...)
			if err != nil {
				t.Errorf("%s %v: %v", tc.name, args, err)
				continue
			}
			if got != want {
				t.Errorf("%s %v: native output and state diverge from the interpreter:\n%s", tc.name, args, firstDiff(want, got))
			}
			st := nativegen.CounterStats(errOut)
			for k, v := range tc.counts {
				if st[k] != v {
					t.Errorf("%s %v: %s = %d, want %d", tc.name, args, k, st[k], v)
				}
			}
		}
	}
}

// firstDiff renders the first differing line of two dumps.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return "line " + strconv.Itoa(i+1) + ":\n  interp: " + w + "\n  native: " + g
		}
	}
	return "(no line diff?)"
}

// compareTolerant compares two dumps token by token; numeric tokens
// (including the dumper's 0x… float bit patterns) may differ by rel
// relative error, everything else must match exactly. Returns "" when
// equivalent.
func compareTolerant(want, got string, rel float64) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	if len(wl) != len(gl) {
		return "line count differs: " + firstDiff(want, got)
	}
	for i := range wl {
		wt, gt := strings.Fields(wl[i]), strings.Fields(gl[i])
		if len(wt) != len(gt) {
			return "line " + strconv.Itoa(i+1) + " differs:\n  interp: " + wl[i] + "\n  native: " + gl[i]
		}
		for j := range wt {
			if wt[j] == gt[j] {
				continue
			}
			wv, okw := parseNum(wt[j])
			gv, okg := parseNum(gt[j])
			if okw && okg {
				if relErr(wv, gv) <= rel {
					continue
				}
				return "line " + strconv.Itoa(i+1) + ": " + wt[j] + " vs " + gt[j] +
					" (rel err " + strconv.FormatFloat(relErr(wv, gv), 'g', 3, 64) + ")"
			}
			return "line " + strconv.Itoa(i+1) + " differs:\n  interp: " + wl[i] + "\n  native: " + gl[i]
		}
	}
	return ""
}

// parseNum parses a dump token as a number: a plain literal, the
// dumper's 0x%016x float bit pattern, or its parenthesized decimal.
func parseNum(tok string) (float64, bool) {
	tok = strings.TrimPrefix(strings.TrimSuffix(tok, ")"), "(")
	if strings.HasPrefix(tok, "0x") {
		bits, err := strconv.ParseUint(tok[2:], 16, 64)
		if err != nil {
			return 0, false
		}
		return math.Float64frombits(bits), true
	}
	v, err := strconv.ParseFloat(tok, 64)
	return v, err == nil
}

func relErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return d
	}
	return d / m
}

// TestNativeSpeculationMatchesInterpreter runs the speculation corpus
// through the native backend: specdisjoint must speculate and commit,
// specconflict must speculate, detect the write-write conflict at the
// join barrier, abort, and rerun serially — and every leg's program
// output + state dump must be byte-identical to the serial
// interpreter's, across worker counts and policies.
func TestNativeSpeculationMatchesInterpreter(t *testing.T) {
	if !nativegen.HaveGo() {
		t.Skip("go toolchain not available")
	}
	for _, tc := range []struct {
		name    string
		code    string
		commits int64
		aborts  int64
	}{
		{"specdisjoint", src.SpecDisjoint, 1, 0},
		{"specconflict", src.SpecConflict, 0, 1},
	} {
		sys := loadRegions(t, tc.name+".mc", tc.code)
		dir := t.TempDir()
		if err := nativegen.Generate(sys, tc.name, dir); err != nil {
			t.Fatal(err)
		}
		bin, err := nativegen.Build(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := interpDump(t, sys, interp.EngineWalk)
		if got := interpDump(t, sys, interp.EngineCompiled); got != want {
			t.Fatalf("%s: interpreter engines disagree:\n%s", tc.name, firstDiff(want, got))
		}
		if got, err := nativegen.Run(bin, "-mode", "serial", "-dump"); err != nil {
			t.Fatal(err)
		} else if got != want {
			t.Errorf("%s serial: native state diverges:\n%s", tc.name, firstDiff(want, got))
		}
		for _, args := range [][]string{
			{"-mode", "parallel", "-workers", "4", "-speculate", "force", "-specstats", "-dump"},
			{"-mode", "parallel", "-workers", "1", "-speculate", "force", "-specstats", "-dump"},
			{"-mode", "parallel", "-workers", "4", "-speculate", "auto", "-dump"},
			{"-mode", "parallel", "-workers", "4", "-speculate", "off", "-dump"},
		} {
			got, errOut, err := nativegen.RunErr(bin, args...)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, args, err)
			}
			if got != want {
				t.Errorf("%s %v: native state diverges from interpreter:\n%s", tc.name, args, firstDiff(want, got))
				continue
			}
			if !slices.Contains(args, "-specstats") {
				continue
			}
			st := nativegen.CounterStats(errOut)
			if st["spec_regions"] != 1 || st["spec_commits"] != tc.commits || st["spec_aborts"] != tc.aborts {
				t.Errorf("%s %v: counters %v, want regions=1 commits=%d aborts=%d",
					tc.name, args, st, tc.commits, tc.aborts)
			}
		}
	}
}

// TestNativeCondHashMatchesInterpreter exercises the conditional-
// commutativity path in the native backend: condhash's plan carries
// synthesized guards, so under -conditional the generated R_ wrapper
// evaluates H.mode at region entry. Mode 0 (guard true) must run the
// parallel region bit-identically to the interpreter; mode 3 (guard
// false) must take the serial path and still match; without
// -conditional the extent runs its serial version even when the guard
// would hold.
func TestNativeCondHashMatchesInterpreter(t *testing.T) {
	if !nativegen.HaveGo() {
		t.Skip("go toolchain not available")
	}
	for _, mode := range []int{0, 3} {
		sys, err := apps.CondHash(mode, 5)
		if err != nil {
			t.Fatal(err)
		}
		clearWork(sys)
		mp := sys.CondPlan.Methods[sys.Prog.MethodByFullName("table::ingest")]
		if mp == nil || !mp.Conditional {
			t.Fatal("table::ingest is not planned conditional")
		}
		dir := t.TempDir()
		if err := nativegen.Generate(sys, "condhash", dir); err != nil {
			t.Fatal(err)
		}
		bin, err := nativegen.Build(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := interpDump(t, sys, interp.EngineWalk)
		if got := interpDump(t, sys, interp.EngineCompiled); got != want {
			t.Fatalf("mode=%d: interpreter engines disagree:\n%s", mode, firstDiff(want, got))
		}
		for _, args := range [][]string{
			{"-mode", "serial", "-dump"},
			{"-mode", "parallel", "-workers", "4", "-conditional", "-dump"},
			{"-mode", "parallel", "-workers", "4", "-dump"},
		} {
			got, err := nativegen.Run(bin, args...)
			if err != nil {
				t.Fatalf("mode=%d %v: %v", mode, args, err)
			}
			if got != want {
				t.Errorf("mode=%d %v: native state diverges from interpreter:\n%s", mode, args, firstDiff(want, got))
			}
		}
	}
}

// TestNativeLoopFixtures: the legality fixtures (src.LoopFixtures)
// through the emitted binary at 2 and 4 workers print and dump what the
// serial walker does, and the emitted text lowers to GSS exactly the
// loops the plan runs in parallel. carried repeats, since its wrong
// answers depended on when helpers joined.
func TestNativeLoopFixtures(t *testing.T) {
	if !nativegen.HaveGo() {
		t.Skip("go toolchain not available")
	}
	for _, fx := range src.LoopFixtures() {
		sys, err := commute.Load(fx.Name+".mc", fx.Source)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := nativegen.Generate(sys, fx.Name, dir); err != nil {
			t.Fatal(err)
		}
		assertGofmt(t, dir)
		if gss := emitsGSS(t, dir); gss != (fx.Parallel > 0) {
			t.Errorf("%s: GSS call in prog.go: %t, the plan has %d parallel loops", fx.Name, gss, fx.Parallel)
		}
		bin, err := nativegen.Build(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := interpDump(t, sys, interp.EngineWalk)
		repeats := 1
		if fx.Name == "carried" {
			repeats = 20
		}
		for _, workers := range []string{"2", "4"} {
			for rep := 0; rep < repeats; rep++ {
				got, err := nativegen.Run(bin, "-mode", "parallel", "-workers", workers, "-dump")
				if err != nil {
					t.Fatalf("%s workers=%s: %v", fx.Name, workers, err)
				}
				if got != want {
					t.Fatalf("%s workers=%s: native state diverges from the serial walker:\n%s", fx.Name, workers, firstDiff(want, got))
				}
			}
		}
	}
}
