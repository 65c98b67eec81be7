// Package oracle is the serial-equivalence oracle the tests share: the
// paper's contract is that running commuting operations in parallel
// yields the serial result, and Check holds every way the system can run
// a program to it. It runs the program on the serial tree walker — the
// reference — and then on the compiled serial engine, on the interpreter
// runtime and as the emitted binary, under every worker count and
// -conditional × -speculate policy, and requires each to print what the
// walker printed and leave its final state. gen.go is the one program
// generator. The package is imported by _test.go files only.
package oracle

import (
	"bytes"
	"context"
	"fmt"
	"go/format"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"commute"
	"commute/internal/frontend/types"
	"commute/internal/interp"
	"commute/internal/nativegen"
	"commute/internal/rt"
)

// Row is one program and what its parallel runs must count beyond
// leaving the walker's output and state.
type Row struct {
	Name, Source string
	// Tol is the relative error a double in the state may carry; 0 means
	// the dumps are equal byte for byte.
	Tol float64
	// Native also vets, builds and runs the emitted package.
	Native bool
	// Race are the worker counts its race-built twin runs at, with
	// -conditional and -speculate force, where every region that can open
	// does.
	Race []int
	// NoParity: on the plan as built the two runtimes' entry costs decline
	// different roots, so the binary's counters and GSS loops are not
	// compared with the interpreter's there. A Native row without it fails
	// when that happens.
	NoParity bool
	// Workers are worker counts run under the default policy beyond the
	// 1, 2 and 4 every policy runs at.
	Workers []int
	// Repeat runs the default policy this many times at 2 and 4 workers,
	// on both runtimes.
	Repeat int
	// Expect says what is wrong with one run's counters; "" when nothing.
	Expect func(Run) string
}

// Run is one parallel run of a row: where and how it ran, and what it
// counted. The emitted binary counts only the policy counters (Policy).
type Run struct {
	Sys         *commute.System
	Native      bool
	Cleared     bool // the plan's work estimates were cleared
	Workers     int
	Conditional bool
	Speculate   rt.SpecMode
	Stats       rt.Stats
	// GSS: the binary's text lowers some loop to guided self-scheduling.
	GSS bool
}

// Policy keeps the counters of a region entry's tier, the ones the
// emitted binary reports.
func Policy(s rt.Stats) rt.Stats {
	return rt.Stats{RegionsDeclined: s.RegionsDeclined, SpeculativeRegions: s.SpeculativeRegions,
		SpeculationCommits: s.SpeculationCommits, SpeculationAborts: s.SpeculationAborts,
		GuardParallel: s.GuardParallel, GuardSerial: s.GuardSerial}
}

// Load compiles a program the way every binary does. Its Plan is the
// plan every parallel run executes.
func Load(t testing.TB, name, source string) *commute.System {
	t.Helper()
	sys, err := commute.Load(name, source)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return sys
}

// ClearWork drops the static work estimates of sys.Plan, so that every
// region root opens its region however small the program is.
func ClearWork(sys *commute.System) *commute.System {
	for _, mp := range sys.Plan.Methods {
		mp.Work = 0
	}
	return sys
}

// Reference runs prog on the serial tree walker and returns what it
// printed followed by its final state: the bytes every other run must
// produce, and what the emitted binary's -dump writes.
func Reference(t testing.TB, prog *types.Program) string {
	t.Helper()
	return serial(t, interp.Compile(prog), interp.EngineWalk)
}

func serial(t testing.TB, code *interp.Code, eng interp.Engine) string {
	t.Helper()
	var buf bytes.Buffer
	ip := interp.NewEngine(code, &buf, eng)
	if err := ip.Run(ip.NewCtx()); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	nativegen.DumpInterp(&buf, ip.Prog, ip)
	return buf.String()
}

// Check runs row on every engine under the plan every binary runs, first
// as built and then — where some run declined an entry — with its work
// estimates cleared, so that each region it has opens. Every run
// must leave the reference output and state, count consistently with its
// policy and satisfy row.Expect; at one worker, where timing decides
// nothing, the binary counts what the interpreter does, and an
// interpreter run of a parallel loop needs a GSS loop in the binary —
// unless the two decline different roots, which only a NoParity row may.
// A run that opens no region must not have started a pool by any print.
//
// Each plan is a subtest ("as-built", "cleared"), and within it each
// policy's interpreter runs ("conditional=true,speculate=off"), the
// binary's runs ("native"), the row's extra worker counts ("workers") and
// the race-built binary ("race", on the plan that declines nothing).
func Check(t *testing.T, row Row) {
	t.Helper()
	sys := Load(t, row.Name+".mc", row.Source)
	c := check{row: row, sys: sys, want: serial(t, sys.Code(), interp.EngineWalk), agree: true}
	if got := serial(t, sys.Code(), interp.EngineCompiled); got != c.want {
		t.Fatalf("compiled serial run: %s", diff(c.want, got, 0))
	}
	for _, m := range sys.Prog.Methods {
		c.agree = c.agree && rt.Declines(sys.Plan, m) == sys.Plan.EmitDeclines(m)
	}
	if c.pass(t) {
		c.cleared, c.agree = true, true
		ClearWork(sys)
		c.pass(t)
	}
}

type check struct {
	row     Row
	sys     *commute.System
	want    string
	cleared bool
	// agree: both runtimes decline the same roots, each under its own
	// entry cost, so at one worker they count the same and run their
	// parallel loops in the same versions.
	agree bool
}

// policy is one -conditional × -speculate setting.
type policy struct {
	conditional bool
	speculate   rt.SpecMode
}

func (p policy) String() string {
	return fmt.Sprintf("conditional=%t,speculate=%s", p.conditional, p.speculate)
}

var policies = []policy{
	{false, rt.SpecOff}, {false, rt.SpecAuto}, {false, rt.SpecForce},
	{true, rt.SpecOff}, {true, rt.SpecAuto}, {true, rt.SpecForce},
}

// pass runs the matrix on the plan as it stands, as the plan's subtest,
// and reports whether any run declined an entry.
func (c *check) pass(t *testing.T) (declined bool) {
	t.Run(c.plan(), func(t *testing.T) {
		one := map[policy]rt.Stats{} // the interpreter's counters at one worker
		loops := false
		for _, p := range policies {
			t.Run(p.String(), func(t *testing.T) {
				for _, w := range []int{1, 2, 4} {
					for reps := c.reps(p, w); reps > 0; reps-- {
						r := c.interp(t, Run{Workers: w, Conditional: p.conditional, Speculate: p.speculate})
						loops = loops || r.Stats.ParallelLoops > 0
						declined = declined || r.Stats.RegionsDeclined > 0
						if w == 1 {
							one[p] = Policy(r.Stats)
						}
					}
				}
			})
		}
		var dir, bin string
		var gss bool
		if c.row.Native {
			dir = t.TempDir() // outlives the subtest: "workers" and "race" run its binaries too
			t.Run("native", func(t *testing.T) {
				if !nativegen.HaveGo() {
					t.Skip("go toolchain not available")
				}
				if !c.agree && !c.row.NoParity {
					t.Errorf("the runtimes decline different roots on this plan, so their counters and loops cannot be compared; a row that expects this says NoParity")
				}
				bin, gss = c.build(t, dir)
				if got, err := nativegen.Run(bin, "-mode", "serial", "-dump"); err != nil || got != c.want {
					t.Errorf("native serial run: %v %s", err, diff(c.want, got, 0))
				}
				for _, p := range policies {
					for _, w := range []int{1, 2, 4} {
						for reps := c.reps(p, w); reps > 0; reps-- {
							n := c.native(t, "native", bin, Run{Workers: w, Conditional: p.conditional, Speculate: p.speculate, GSS: gss})
							declined = declined || n.Stats.RegionsDeclined > 0
							if want, ok := one[p]; w == 1 && c.agree && ok && n.Stats != want {
								t.Errorf("%s: the binary counts %s, the interpreter %s", c.label("native", n), Counts(n.Stats), Counts(want))
							}
						}
					}
				}
				if loops && c.agree && !gss {
					t.Errorf("the interpreter ran a parallel loop; the binary's text has no GSS loop")
				}
			})
		}
		if len(c.row.Workers) > 0 {
			t.Run("workers", func(t *testing.T) {
				for _, w := range c.row.Workers {
					c.interp(t, Run{Workers: w})
					if bin != "" {
						c.native(t, "native", bin, Run{Workers: w, GSS: gss})
					}
				}
			})
		}
		if len(c.row.Race) > 0 && bin != "" && (c.cleared || !declined) {
			t.Run("race", func(t *testing.T) {
				race, err := nativegen.BuildRace(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range c.row.Race {
					c.native(t, "race-built native", race, Run{Workers: w, Conditional: true, Speculate: rt.SpecForce, GSS: gss})
				}
			})
		}
	})
	return declined
}

// reps is how many times each engine runs policy p at w workers: the
// row's Repeat under the default policy at 2 and 4 workers, else once.
func (c *check) reps(p policy, w int) int {
	if w > 1 && p == policies[0] {
		return max(c.row.Repeat, 1)
	}
	return 1
}

// build emits the plan as a Go package in dir, builds it and vets it:
// what the emitter writes must be gofmt's fixed point and draw nothing
// from go vet (a lock copied by value, a bad format verb), neither of
// which go build rejects.
func (c *check) build(t *testing.T, dir string) (bin string, gss bool) {
	if err := nativegen.Generate(c.sys, c.row.Name, dir); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(filepath.Join(dir, "prog.go"))
	if fmted, ferr := format.Source(text); err != nil || ferr != nil || !bytes.Equal(fmted, text) {
		t.Errorf("prog.go is not in gofmt's form (read: %v, format: %v)", err, ferr)
	}
	gss = bytes.Contains(text, []byte("nativert.GSSOn(")) || bytes.Contains(text, []byte("nativert.SpecGSS("))
	if bin, err = nativegen.Build(dir); err != nil {
		t.Fatal(err)
	}
	vet := exec.Command("go", "vet", ".")
	vet.Dir = dir
	if out, err := vet.CombinedOutput(); err != nil {
		t.Errorf("go vet on the emitted package: %v\n%s", err, out)
	}
	return bin, gss
}

// printWatch is an interpreter run's output; it notes the most goroutines
// alive at any print.
type printWatch struct {
	bytes.Buffer
	peak int
}

func (w *printWatch) Write(p []byte) (int, error) {
	w.peak = max(w.peak, runtime.NumGoroutine())
	return w.Buffer.Write(p)
}

func (c *check) interp(t *testing.T, r Run) Run {
	r.Sys, r.Cleared = c.sys, c.cleared
	before := runtime.NumGoroutine()
	var out printWatch
	ip, st, err := c.sys.RunParallelOpts(context.Background(), commute.RunOptions{
		Workers: r.Workers, Conditional: r.Conditional, Speculate: r.Speculate}, &out)
	label := c.label("interpreter", r)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	r.Stats = *st
	if st.Regions == 0 && out.peak > before {
		t.Errorf("%s: %d goroutines at a print, %d before the run: a pool started, yet no region opened", label, out.peak, before)
	}
	nativegen.DumpInterp(&out.Buffer, c.sys.Prog, ip)
	c.expect(t, r, label, out.String())
	return r
}

func (c *check) native(t *testing.T, engine, bin string, r Run) Run {
	r.Sys, r.Cleared, r.Native = c.sys, c.cleared, true
	out, errOut, err := nativegen.RunErr(bin, "-mode", "parallel", "-workers", strconv.Itoa(r.Workers),
		fmt.Sprintf("-conditional=%t", r.Conditional), "-speculate", r.Speculate.String(), "-guardstats", "-specstats", "-dump")
	label := c.label(engine, r)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	n := nativegen.CounterStats(errOut)
	r.Stats = rt.Stats{RegionsDeclined: n["regions_declined"], SpeculativeRegions: n["spec_regions"],
		SpeculationCommits: n["spec_commits"], SpeculationAborts: n["spec_aborts"],
		GuardParallel: n["guard_parallel"], GuardSerial: n["guard_serial"]}
	c.expect(t, r, label, out)
	return r
}

// expect holds one run to the reference and to what every run counts:
// no declined entry once the estimates are cleared, a commit or an abort
// for every speculative region, guards asked only under -conditional and
// speculation only when the policy allows it.
func (c *check) expect(t *testing.T, r Run, label, got string) {
	if d := diff(c.want, got, c.row.Tol); d != "" {
		t.Errorf("%s: %s", label, d)
	}
	s := r.Stats
	msg := ""
	switch {
	case r.Cleared && s.RegionsDeclined != 0:
		msg = "declined an entry with the estimates cleared"
	case s.SpeculationCommits+s.SpeculationAborts != s.SpeculativeRegions:
		msg = "commits and aborts do not add up to the speculative regions"
	case !r.Conditional && s.GuardParallel+s.GuardSerial != 0:
		msg = "asked a guard with -conditional off"
	case r.Speculate == rt.SpecOff && s.SpeculativeRegions != 0:
		msg = "speculated with -speculate off"
	case c.row.Expect != nil:
		msg = c.row.Expect(r)
	}
	if msg != "" {
		t.Errorf("%s: %s; counted %s", label, msg, Counts(s))
	}
}

func (c *check) label(engine string, r Run) string {
	return fmt.Sprintf("%s workers=%d %s", engine, r.Workers, policy{r.Conditional, r.Speculate})
}

func (c *check) plan() string {
	if c.cleared {
		return "cleared"
	}
	return "as-built"
}

// Counts renders the counters of s that are not zero.
func Counts(s rt.Stats) string {
	v := reflect.ValueOf(s)
	var out []string
	for i := 0; i < v.NumField(); i++ {
		if n := v.Field(i).Int(); n != 0 {
			out = append(out, fmt.Sprintf("%s=%d", v.Type().Field(i).Name, n))
		}
	}
	return "{" + strings.Join(out, " ") + "}"
}

// diff describes the first line of got that differs from want, where a
// double may carry tol relative error; "" when there is none.
func diff(want, got string, tol float64) string {
	if want == got {
		return ""
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		pw, a, okw := double(w)
		pg, b, okg := double(g)
		if okw && okg && pw == pg && math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) {
			continue
		}
		return fmt.Sprintf("line %d differs from the serial walker's:\n  want %.200s\n   got %.200s", i+1, w, g)
	}
	return ""
}

// double parses a dump line of a double, "path = double 0x<bits> (<g>)".
func double(line string) (string, float64, bool) {
	path, rest, ok := strings.Cut(line, " = double 0x")
	hex, _, _ := strings.Cut(rest, " ")
	bits, err := strconv.ParseUint(hex, 16, 64)
	return path, math.Float64frombits(bits), ok && err == nil
}
