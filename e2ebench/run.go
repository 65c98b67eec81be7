package main

// The run sections: loaded, warmed programs executed by the interpreter
// (in process) and by the native backend (one process per run, timed
// by wall clock from exec to exit, without -dump).

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"commute"
	"commute/internal/codegen"
	"commute/internal/interp"
	"commute/internal/nativegen"
	"commute/internal/rt"
)

// workers is N: the 2-core box's worker and client count.
const workers = 2

// loadedProg is a program loaded and warmed in setup, with the walker
// reference filled in before anything is timed.
type loadedProg struct {
	p   program
	sys *commute.System
	ref reference
	bin string // native binary, when the program is run natively
}

func loadProgram(p program) (*loadedProg, error) {
	sys, err := commute.LoadOpts(p.name, p.source, p.load)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", p.name, err)
	}
	sys.Warm()
	return &loadedProg{p: p, sys: sys}, nil
}

// mode is one execution configuration of a program. par1 (parallel
// code on one worker) exists only in traced runs: it prices the
// parallel constructs with no parallelism to pay for them.
type mode struct {
	name    string
	workers int // 0: serial
}

var (
	modeSerial = mode{"serial", 0}
	modeParN   = mode{"parN", workers}
	modePar1   = mode{"par1", 1}
)

func modesFor(traced bool) []mode {
	if traced {
		return []mode{modeSerial, modeParN, modePar1}
	}
	return []mode{modeSerial, modeParN}
}

// runInterp executes the program once on the compiled engine.
func runInterp(lp *loadedProg, m mode) (time.Duration, string, *interp.Interp, rt.Stats, error) {
	var out bytes.Buffer
	t0 := time.Now()
	if m.workers == 0 {
		ip, err := lp.sys.RunSerialEngine(interp.EngineCompiled, &out)
		return time.Since(t0), out.String(), ip, rt.Stats{}, err
	}
	ip, st, err := lp.sys.RunParallelOpts(context.Background(), commute.RunOptions{
		Workers: m.workers, Conditional: lp.p.conditional, Speculate: lp.p.speculate,
	}, &out)
	d := time.Since(t0)
	var stats rt.Stats
	if st != nil {
		stats = *st
	}
	return d, out.String(), ip, stats, err
}

// nativeArgs are the generated driver's flags for one configuration.
func nativeArgs(p program, m mode) []string {
	if m.workers == 0 {
		return []string{"-mode", "serial"}
	}
	return []string{"-mode", "parallel", "-workers", strconv.Itoa(m.workers),
		"-conditional=" + strconv.FormatBool(p.conditional),
		"-speculate", p.speculate.String()}
}

// runNative executes the binary once, waits for it to exit, and returns
// the wall time from exec to exit with its stdout and stderr.
func runNative(bin string, args ...string) (time.Duration, string, string, error) {
	t0 := time.Now()
	stdout, stderr, err := nativegen.RunErr(bin, args...)
	return time.Since(t0), stdout, stderr, err
}

// buildNative emits every program's conditional plan as a Go package
// and builds them all with one `go build` in one module that resolves
// commute/nativert and commute/rtkit to the checkout under test.
func buildNative(dir, root string, progs []*loadedProg) (time.Duration, error) {
	if len(progs) == 0 {
		return 0, nil
	}
	gomod := "module e2enative\n\ngo 1.22\n\nrequire commute v0.0.0\n\nreplace commute => " + root + "\n"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		return 0, err
	}
	for i, lp := range progs {
		files, err := lp.sys.CondPlan.EmitGoPackage(codegen.EmitGoOptions{AppName: lp.p.name})
		if err != nil {
			return 0, fmt.Errorf("emit %s: %w", lp.p.name, err)
		}
		app := fmt.Sprintf("app%02d", i)
		if err := os.MkdirAll(filepath.Join(dir, app), 0o755); err != nil {
			return 0, err
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, app, name), data, 0o644); err != nil {
				return 0, err
			}
		}
		lp.bin = filepath.Join(dir, "bin", app)
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", filepath.Join(dir, "bin")+string(filepath.Separator), "./...")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build of the emitted packages: %w\n%s", err, out)
	}
	return time.Since(t0), nil
}

// verifyRuns is the untimed warm-up op of every (program, engine,
// mode): each is run once with a full state dump. Serial runs and
// integer-state programs must be byte-identical to the walker
// reference; parallel runs of the float applications must match leaf
// by leaf within floatTol.
func verifyRuns(interps, natives []*loadedProg, traced bool, tl *tally) {
	for _, lp := range interps {
		for _, m := range modesFor(traced) {
			_, out, ip, _, err := runInterp(lp, m)
			if err == nil {
				err = sameText(lp.ref.out+lp.ref.dump, out+dumpOf(lp.sys, ip), tolFor(lp.p, m.workers > 0))
			}
			tl.op("verify interp "+lp.p.name+"/"+m.name, err)
		}
	}
	for _, lp := range natives {
		for _, m := range modesFor(traced) {
			_, out, _, err := runNative(lp.bin, append(nativeArgs(lp.p, m), "-dump")...)
			if err == nil {
				err = sameText(lp.ref.out+lp.ref.dump, out, tolFor(lp.p, m.workers > 0))
			}
			tl.op("verify native "+lp.p.name+"/"+m.name, err)
		}
	}
}

// runResult holds one engine's samples: ms per (program, mode).
type runResult struct {
	progs   []string
	samples map[string]map[string][]float64 // program → mode → ms
	stats   map[string]rt.Stats             // interp: parN counters of one run per program
	allocs  map[string]map[string]float64   // interp, traced: mallocs of one run per program/mode
	native  map[string]int64                // native, traced: Σ -guardstats/-specstats counters
}

func newRunResult(progs []*loadedProg) runResult {
	r := runResult{samples: map[string]map[string][]float64{}, stats: map[string]rt.Stats{},
		allocs: map[string]map[string]float64{}, native: map[string]int64{}}
	for _, lp := range progs {
		r.progs = append(r.progs, lp.p.name)
		r.samples[lp.p.name] = map[string][]float64{}
		r.allocs[lp.p.name] = map[string]float64{}
	}
	return r
}

// best aggregates one mode: the geometric mean over programs of each
// program's fastest run. Interference on the shared reference box only
// ever slows a run, and it comes in bursts that can cover half of one
// program's samples: per-program medians of identical runs differed by
// 25-30 % between runs, fastest runs by 2-7 %.
func (r runResult) best(m mode) float64 {
	var bests []float64
	for _, p := range r.progs {
		bests = append(bests, quantile(sorted(r.samples[p][m.name]), 0))
	}
	return geomean(bests)
}

// runSection is a run section's state between steps: one engine, every
// (program, mode) of the workload in a fixed cycle.
type runSection struct {
	engine string
	progs  []*loadedProg
	modes  []mode
	// exec runs one configuration once and returns its wall time, what
	// it printed, and (interpreter only) the runtime's counters.
	exec  func(lp *loadedProg, m mode) (time.Duration, string, rt.Stats, error)
	total int // timed runs: rounds × configurations
	next  int
	res   runResult
	tl    *tally
	tr    *tracer
}

func newRunSection(engine string, progs []*loadedProg, rounds int, tl *tally, tr *tracer,
	exec func(*loadedProg, mode) (time.Duration, string, rt.Stats, error)) *runSection {
	modes := modesFor(tr != nil)
	return &runSection{engine: engine, progs: progs, modes: modes, exec: exec,
		total: rounds * len(progs) * len(modes), res: newRunResult(progs), tl: tl, tr: tr}
}

func interpExec(lp *loadedProg, m mode) (time.Duration, string, rt.Stats, error) {
	d, out, _, st, err := runInterp(lp, m)
	return d, out, st, err
}

func nativeExec(lp *loadedProg, m mode) (time.Duration, string, rt.Stats, error) {
	d, out, _, err := runNative(lp.bin, nativeArgs(lp.p, m)...)
	return d, out, rt.Stats{}, err
}

// step times the next n runs of the cycle program 1 serial, program 1
// parallel, program 2 serial, …, so machine drift hits every
// configuration equally. Each timed run's print output is checked
// against the reference.
func (s *runSection) step(n int) {
	for ; n > 0 && s.next < s.total; n, s.next = n-1, s.next+1 {
		cfg := s.next % (len(s.progs) * len(s.modes))
		lp, m := s.progs[cfg/len(s.modes)], s.modes[cfg%len(s.modes)]
		what := s.engine + " " + lp.p.name + "/" + m.name
		sp := s.tr.begin(what, -1, s.next)
		d, out, st, err := s.exec(lp, m)
		s.tr.end(sp)
		if err == nil {
			err = sameText(lp.ref.out, out, tolFor(lp.p, m.workers > 0))
		}
		if !s.tl.op(what, err) {
			continue
		}
		s.res.samples[lp.p.name][m.name] = append(s.res.samples[lp.p.name][m.name], float64(d.Nanoseconds())/1e6)
		if m == modeParN {
			s.res.stats[lp.p.name] = st
		}
	}
}

// interpExtras takes the allocation count of one more run per
// configuration (traced runs), apart from the timed runs because
// ReadMemStats stops the world.
func (s *runSection) interpExtras() {
	var ms runtime.MemStats
	for _, lp := range s.progs {
		for _, m := range s.modes {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			_, _, _, _, err := runInterp(lp, m)
			runtime.ReadMemStats(&ms)
			s.tl.op("interp allocs "+lp.p.name+"/"+m.name, err)
			s.res.allocs[lp.p.name][m.name] = float64(ms.Mallocs - before)
		}
	}
}

// nativeExtras reads the generated drivers' own guard and speculation
// counters from one more parallel run per program (traced runs).
func (s *runSection) nativeExtras() {
	for _, lp := range s.progs {
		_, _, stderr, err := runNative(lp.bin, append(nativeArgs(lp.p, modeParN), "-guardstats", "-specstats")...)
		s.tl.op("native counters "+lp.p.name, err)
		for k, v := range nativegen.CounterStats(stderr) {
			s.res.native[k] += v
		}
	}
}
