package nativert

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"commute/rtkit"
)

// TestEnterTable is the entry rule as a table: every kind of root under
// the six policy combinations, guard true and false. An outcome is one
// letter — the tier and the counters that move with it:
//
//	s  Serial, nothing counted
//	p  Parallel: Regions
//	G  Parallel by a true guard: GuardParallel, Regions
//	g  Serial by a false guard: GuardSerial
//	f  Speculative, forced after a false guard: GuardSerial, SpeculativeRegions, Regions
//	x  Speculative by policy: SpeculativeRegions, Regions
//
// and a cell is the outcome with the guard true, then false. With
// Parallel off every cell is "ss", and the guard is asked exactly where
// the letter is G, g or f.
func TestEnterTable(t *testing.T) {
	outcomes := map[byte]struct {
		tier Tier
		st   Stats
	}{
		's': {Serial, Stats{}},
		'p': {Parallel, Stats{Regions: 1}},
		'G': {Parallel, Stats{Regions: 1, GuardParallel: 1}},
		'g': {Serial, Stats{GuardSerial: 1}},
		'f': {Speculative, Stats{Regions: 1, GuardSerial: 1, SpeculativeRegions: 1}},
		'x': {Speculative, Stats{Regions: 1, SpeculativeRegions: 1}},
	}
	policies := []Policy{
		{Speculate: SpecOff}, {Speculate: SpecAuto}, {Speculate: SpecForce},
		{Conditional: true, Speculate: SpecOff}, {Conditional: true, Speculate: SpecAuto}, {Conditional: true, Speculate: SpecForce},
	}
	for _, row := range []struct {
		name string
		root Root
		// -conditional off: off, auto, force; then on: off, auto, force.
		cells [6]string
	}{
		{"proven", Root{Proven: true}, [6]string{"pp", "pp", "pp", "pp", "pp", "pp"}},
		{"conditional", Root{Conditional: true}, [6]string{"ss", "ss", "ss", "Gg", "Gg", "Gg"}},
		{"conditional, eligible", Root{Conditional: true, SpecEligible: true, Confidence: 2.0 / 3}, [6]string{"ss", "xx", "xx", "Gg", "Gg", "Gf"}},
		{"conditional, eligible, low confidence", Root{Conditional: true, SpecEligible: true, Confidence: 0.25}, [6]string{"ss", "ss", "xx", "Gg", "Gg", "Gf"}},
		{"speculative", Root{}, [6]string{"ss", "ss", "ss", "ss", "ss", "ss"}},
		{"speculative, eligible", Root{SpecEligible: true, Confidence: 2.0 / 3}, [6]string{"ss", "xx", "xx", "ss", "xx", "xx"}},
		{"speculative, eligible, at the threshold", Root{SpecEligible: true, Confidence: DefaultSpecThreshold}, [6]string{"ss", "xx", "xx", "ss", "xx", "xx"}},
		{"speculative, eligible, just below the threshold", Root{SpecEligible: true, Confidence: math.Nextafter(DefaultSpecThreshold, 0)}, [6]string{"ss", "ss", "xx", "ss", "ss", "xx"}},
		{"speculative, eligible, low confidence", Root{SpecEligible: true, Confidence: 0.25}, [6]string{"ss", "ss", "xx", "ss", "ss", "xx"}},
	} {
		for i, p := range policies {
			for gi, guardVal := range []bool{true, false} {
				for _, parallel := range []bool{true, false} {
					p.Parallel = parallel
					want := outcomes[row.cells[i][gi]]
					if !parallel {
						want = outcomes['s']
					}
					asked := 0
					var st Stats
					tier := p.Enter(&st, row.root, func() bool { asked++; return guardVal })
					label := fmt.Sprintf("%s: parallel=%t conditional=%t speculate=%s guard=%t", row.name, parallel, p.Conditional, p.Speculate, guardVal)
					if tier != want.tier || st != want.st {
						t.Errorf("%s: tier %d, counted %+v; want tier %d, %+v", label, tier, st, want.tier, want.st)
					}
					if wantAsked := want.st.GuardParallel + want.st.GuardSerial; int64(asked) != wantAsked {
						t.Errorf("%s: guard asked %d times, want %d", label, asked, wantAsked)
					}
				}
			}
		}
	}
}

func TestSpecModeNames(t *testing.T) {
	for _, m := range []SpecMode{SpecOff, SpecAuto, SpecForce} {
		if got, ok := ParseSpecMode(m.String()); !ok || got != m {
			t.Errorf("ParseSpecMode(%q) = %v, %t", m.String(), got, ok)
		}
	}
	if m, ok := ParseSpecMode(""); !ok || m != SpecOff {
		t.Errorf(`ParseSpecMode("") = %v, %t`, m, ok)
	}
	if _, ok := ParseSpecMode("always"); ok {
		t.Error(`ParseSpecMode("always") accepted`)
	}
}

// drive runs the emitted program's driver in-process on a program that
// calls run with the driver it was started on.
func drive(run func(*Driver), args ...string) (d *Driver, code int, stdout, stderr string, runs int) {
	d = new(Driver)
	var out, errOut bytes.Buffer
	code = d.main(append([]string{"app"}, args...), &out, &errOut,
		func() {},
		func() {
			runs++
			if run != nil {
				run(d)
			}
		},
		func(dd *Dumper) { dd.Int("g.x", 7) })
	return d, code, out.String(), errOut.String(), runs
}

// TestDriver pins what scripts, nativegen.CounterStats and the harness
// read of an emitted binary: flag names, exit codes, and the bytes of the
// counter, dump and bench output.
func TestDriver(t *testing.T) {
	if d, code, _, _, runs := drive(nil); code != 0 || runs != 1 || d.Policy != (Policy{}) || d.Workers < 1 {
		t.Errorf("no flags: exit %d after %d runs under %+v, %d workers; want a serial run", code, runs, d.Policy, d.Workers)
	}
	d, code, _, _, _ := drive(nil, "-mode", "parallel", "-workers", "0", "-conditional", "-speculate", "auto")
	if want := (Policy{Parallel: true, Conditional: true, Speculate: SpecAuto}); code != 0 || d.Policy != want || d.Workers != 1 {
		t.Errorf("exit %d, policy %+v, %d workers; want %+v and -workers 0 clamped to 1", code, d.Policy, d.Workers, want)
	}
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-mode", "simulate"}, "unknown mode \"simulate\"\n"},
		{[]string{"-mode", "parallel", "-speculate", "always"}, "unknown speculation policy \"always\"\n"},
	} {
		if _, code, _, stderr, runs := drive(nil, tc.args...); code != 2 || stderr != tc.stderr || runs != 0 {
			t.Errorf("%v: exit %d, stderr %q, %d runs; want 2, %q, none", tc.args, code, stderr, runs, tc.stderr)
		}
	}
	if _, code, _, stderr, runs := drive(nil, "-nosuch"); code != 2 || runs != 0 ||
		!strings.HasPrefix(stderr, "flag provided but not defined: -nosuch\nUsage of app:\n") {
		t.Errorf("undefined flag: exit %d, %d runs, stderr %q", code, runs, stderr)
	}
	_, code, _, stderr, runs := drive(nil, "-h")
	if code != 0 || runs != 0 || !strings.HasPrefix(stderr, "Usage of app:\n") {
		t.Errorf("-h: exit %d, %d runs, stderr %q", code, runs, stderr)
	}
	for _, name := range []string{"mode", "workers", "conditional", "guardstats", "speculate", "specstats", "dump", "bench"} {
		if !strings.Contains(stderr, "\n  -"+name+" ") && !strings.Contains(stderr, "\n  -"+name+"\n") {
			t.Errorf("-h does not list -%s:\n%s", name, stderr)
		}
	}

	count := func(d *Driver) {
		d.Stats = Stats{GuardParallel: 3, GuardSerial: 2, RegionsDeclined: 1, SpeculativeRegions: 6, SpeculationCommits: 5, SpeculationAborts: 4}
	}
	const spec, guard = "spec_regions 6\nspec_commits 5\nspec_aborts 4\n", "guard_parallel 3\nguard_serial 2\nregions_declined 1\n"
	if _, code, stdout, stderr, _ := drive(count, "-specstats", "-guardstats", "-dump"); code != 0 || stderr != spec+guard || stdout != "g.x = int 7\n" {
		t.Errorf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	if _, _, stdout, stderr, _ := drive(count, "-guardstats"); stderr != guard || stdout != "" {
		t.Errorf("-guardstats alone: stdout %q, stderr %q", stdout, stderr)
	}

	// A run-time failure of the program: the counters, then the report,
	// exit 1 and no dump.
	fail := func(d *Driver) {
		count(d)
		Errf("gss", "driver::run", "12:3", "non-positive step %d", 0)
	}
	if _, code, stdout, stderr, _ := drive(fail, "-guardstats", "-dump"); code != 1 || stdout != "" ||
		stderr != guard+"nativert: gss in driver::run at 12:3: non-positive step 0\n" {
		t.Errorf("failing program: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}

	_, code, stdout, _, runs := drive(nil, "-bench", "3", "-dump")
	var ns int64
	if n, err := fmt.Sscanf(stdout, "ns_per_op %d\n", &ns); code != 0 || runs != 4 || n != 1 || err != nil {
		t.Errorf("-bench 3: exit %d, %d runs (want a warm-up and 3), stdout %q", code, runs, stdout)
	}
}

// TestRunSpeculative: the life cycle an emitted R_ wrapper hands its
// journaled root to — committed stores land and count a commit; a root
// that fails lands nothing, counts an abort, and the caller is told to
// run the serial version.
func TestRunSpeculative(t *testing.T) {
	d := &Driver{Workers: testWorkers}
	var cell int64
	store := func(_ *rtkit.Worker, _ *SpecRegion, sj *SpecJournal) { SpecStore(sj, &cell, 9, "") }
	if !d.RunSpeculative(nil, nil, store) || cell != 9 {
		t.Errorf("disjoint store: not committed, cell = %d", cell)
	}
	failing := func(w *rtkit.Worker, sr *SpecRegion, sj *SpecJournal) {
		store(w, sr, sj)
		SpecStore(sj, &cell, 11, "")
		Errf("test", "root", "", "a faulting root")
	}
	if d.RunSpeculative(nil, nil, failing) || cell != 9 {
		t.Errorf("faulting root: committed, cell = %d", cell)
	}
	if want := (Stats{SpeculationCommits: 1, SpeculationAborts: 1}); d.Stats != want {
		t.Errorf("counted %+v, want %+v", d.Stats, want)
	}
}
