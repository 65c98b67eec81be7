// Command e2ebench is the repository's benchmark: four workloads, each
// generated from a seed, each checked against the serial tree walker,
// each reporting the same end-to-end metrics (untraced run) or per-layer
// metrics (traced run). See README.md in this directory.
//
//	go run ./e2ebench -workload compile-corpus [-seed S] [-seconds N] [-trace 1] [-aa]
//
// It measures every layer from outside, by timing calls into the
// layer's public functions; nothing in the program under test is
// instrumented.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload: compile-corpus | run-coarse | run-fine | serve-mixed")
		seed     = flag.Int64("seed", defaultSeed, "input seed: same seed, same inputs")
		seconds  = flag.Int("seconds", runSeconds, "run length; operation counts scale with it and with nothing else")
		traced   = flag.Int("trace", 0, "1: traced run at a fifth of the operations, reporting per-layer metrics")
		traceOut = flag.String("trace-out", "", "where a traced run writes its spans (default .bench_build/e2ebench/trace-<workload>.json)")
		aa       = flag.Bool("aa", false, "run the workload twice on this build and compare the two against the bounds")
	)
	flag.Parse()
	wl, ok := workloadByName(*name)
	if !ok || flag.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}

	// Sizing rule: a 2-core box. The harness and every child process it
	// starts (native binaries, go build) run at GOMAXPROCS=2.
	runtime.GOMAXPROCS(workers)
	for _, kv := range [][2]string{{"GOMAXPROCS", strconv.Itoa(workers)}, {"GOPROXY", "off"}, {"GOTOOLCHAIN", "local"}} {
		if err := os.Setenv(kv[0], kv[1]); err != nil {
			fatal(err)
		}
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	if mod, err := os.ReadFile(filepath.Join(root, "go.mod")); err != nil || !strings.HasPrefix(string(mod), "module commute\n") {
		fatal(fmt.Errorf("run e2ebench from the root of the commute module (no commute go.mod in %s)", root))
	}
	cfg := runConfig{wl: wl, seed: *seed, seconds: *seconds, traced: *traced == 1, root: root, traceOut: *traceOut}

	if *aa {
		os.Exit(selfCheck(cfg))
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	res.tally.report()
	res.printJSON(os.Stdout)
	if res.tally.failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

type runConfig struct {
	wl       workload
	seed     int64
	seconds  int
	traced   bool
	root     string
	traceOut string
}

// env is everything setup builds: the inputs and the system under test
// ready to be measured.
type env struct {
	dir      string
	corpus   []program
	interps  []*loadedProg
	natives  []*loadedProg
	runProg  *loadedProg
	mix      serveMix
	fleet    *fleetEnv
	build    time.Duration
	binBytes int64
}

// setup generates the inputs from the seed, loads and warms every
// program the run sections execute, emits and builds the native
// packages, prepares the request mix and starts the serving stack.
func setup(cfg runConfig, dir string) (e *env, err error) {
	e = &env{dir: dir}
	defer func() {
		if err != nil {
			e.teardown()
		}
	}()
	e.corpus = compileCorpus(cfg.seed)
	r := rand.New(rand.NewSource(cfg.seed ^ 0x72756e))
	for _, p := range cfg.wl.interp(r) {
		lp, err := loadProgram(p)
		if err != nil {
			return e, err
		}
		e.interps = append(e.interps, lp)
	}
	for _, p := range cfg.wl.native(r) {
		lp, err := loadProgram(p)
		if err != nil {
			return e, err
		}
		e.natives = append(e.natives, lp)
	}
	if e.build, err = buildNative(filepath.Join(dir, "native"), cfg.root, e.natives); err != nil {
		return e, err
	}
	for _, lp := range e.natives {
		st, err := os.Stat(lp.bin)
		if err != nil {
			return e, err
		}
		e.binBytes += st.Size()
	}
	if e.runProg, err = loadProgram(probeSynth(r, 4)); err != nil {
		return e, err
	}
	// The run class's expected output is part of the prepared mix.
	if e.runProg.ref, err = walkerReference(e.runProg.sys); err != nil {
		return e, err
	}
	requests := scaled(cfg.wl.serveRequests, cfg.seconds, cfg.traced, 200)
	if e.mix, err = newServeMix(cfg.seed, requests, e.corpus, e.runProg); err != nil {
		return e, err
	}
	e.fleet, err = startFleet()
	return e, err
}

func (e *env) teardown() {
	if e.fleet != nil {
		e.fleet.stop()
	}
	for _, lp := range append(append(e.interps, e.natives...), e.runProg) {
		if lp != nil {
			lp.sys.Release()
		}
	}
	os.RemoveAll(e.dir)
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// measureRounds is how many interleaved rounds a run's operations are
// dealt into.
const measureRounds = 40

// slice is how many of total operations round r performs, so that the
// rounds together perform exactly total.
func slice(total, r int) int {
	return total*(r+1)/measureRounds - total*r/measureRounds
}

// result is one run of one workload.
type result struct {
	cfg     runConfig
	tally   *tally
	metrics map[string]float64
	rows    []string // per-program and per-class detail lines
	// speed is this run's yardstick reading over the nominal one: above 1
	// the machine was slow. Timings measured in the rounds are divided
	// by it, rates multiplied.
	speed float64
}

func runWorkload(cfg runConfig) (*result, error) {
	res := &result{cfg: cfg, tally: &tally{}, metrics: map[string]float64{}}
	work := filepath.Join(cfg.root, ".bench_build", "e2ebench")
	var (
		e      *env
		setups []float64
		yard   = newYardstick()
		// around holds yardstick readings taken around the setups: the
		// machine's speed while they ran.
		around []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if e != nil {
			e.teardown()
		}
		around = append(around, yard.read(), yard.read(), yard.read())
		dir := filepath.Join(work, fmt.Sprintf("%s-%d-%d", cfg.wl.name, os.Getpid(), rep))
		t0 := time.Now()
		var err error
		if e, err = setup(cfg, dir); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.teardown()
	around = append(around, yard.read(), yard.read(), yard.read())
	setupS := median(setups) / (median(around) / yardstickNominalMS)

	// Oracle: the walker's result for every program that will run, on
	// both cores. Not part of setup_s — it is the harness's cost, not
	// the system's.
	t0 := time.Now()
	if err := references(append(append([]*loadedProg(nil), e.interps...), e.natives...)); err != nil {
		return nil, err
	}
	verifyRuns(e.interps, e.natives, cfg.traced, res.tally)
	res.rows = append(res.rows, fmt.Sprintf("oracle: walker references + full-dump check of every (program, engine, mode) took %.2f s", time.Since(t0).Seconds()))

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	// Measurement. The four sections advance in turn, a slice of each
	// per round, so every metric's samples are spread over the whole run:
	// a burst of interference from the host then slows a part of every
	// series instead of all of one.
	wl := cfg.wl
	compSec := newCompileSection(e.corpus, scaled(wl.compilePasses, cfg.seconds, cfg.traced, 1), res.tally, tr)
	interpSec := newRunSection("interp", e.interps, scaled(wl.interpRounds, cfg.seconds, cfg.traced, 3), res.tally, tr, interpExec)
	nativeSec := newRunSection("native", e.natives, scaled(wl.nativeRounds, cfg.seconds, cfg.traced, 3), res.tally, tr, nativeExec)
	serveSec, err := newServeSection(e.fleet, e.mix, res.tally, tr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	sections := []struct {
		step  func(n int)
		total int
	}{
		{compSec.step, compSec.total}, {interpSec.step, interpSec.total},
		{nativeSec.step, nativeSec.total}, {serveSec.step, len(e.mix.calls)},
	}
	var spent [4]time.Duration
	var readings []float64
	for r := 0; r < measureRounds; r++ {
		readings = append(readings, yard.read())
		for i, sec := range sections {
			t := time.Now()
			sec.step(slice(sec.total, r))
			spent[i] += time.Since(t)
		}
	}
	if cfg.traced {
		interpSec.interpExtras()
		nativeSec.nativeExtras()
	}
	comp, interp, native := compSec.res, interpSec.res, nativeSec.res
	res.speed = median(readings) / yardstickNominalMS
	res.rows = append(res.rows, fmt.Sprintf("machine speed: yardstick %.3f ms (median of %d readings; nominal %.1f) -> timings are reported divided by %.4f; the rows below are as measured",
		median(readings), len(readings), yardstickNominalMS, res.speed))
	serve, err := serveSec.finish()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	res.rows = append(res.rows, fmt.Sprintf("measured: compile %.2f s  interp %.2f s  native %.2f s  serve %.2f s, in %d interleaved rounds  (setup x%d: %.2f s as measured, yardstick %.3f ms around them)",
		spent[0].Seconds(), spent[1].Seconds(), spent[2].Seconds(), spent[3].Seconds(), measureRounds, setupReps, sum(setups), median(around)))

	if cfg.traced {
		res.layerMetrics(e, comp, interp, native, serve)
		out := cfg.traceOut
		if out == "" {
			out = filepath.Join(work, "trace-"+wl.name+".json")
		}
		if err := tr.write(out, wl.name, cfg.seed, res.metrics); err != nil {
			return nil, err
		}
		res.rows = append(res.rows, "trace written to "+out)
	} else {
		res.endToEnd(setupS, comp, interp, native, serve)
	}
	return res, nil
}

// references fills in the walker reference of every program, two at a
// time.
func references(progs []*loadedProg) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  = make(chan *loadedProg)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lp := range next {
				ref, err := walkerReference(lp.sys)
				mu.Lock()
				lp.ref = ref
				if err != nil && first == nil {
					first = fmt.Errorf("%s: %w", lp.p.name, err)
				}
				mu.Unlock()
			}
		}()
	}
	for _, lp := range progs {
		next <- lp
	}
	close(next)
	wg.Wait()
	return first
}

func (res *result) set(name string, v float64) { res.metrics[name] = v }

// setTime records a timing measured in the rounds, corrected for the
// machine's speed during this run; setRate does the same for a rate.
func (res *result) setTime(name string, v float64) { res.metrics[name] = v / res.speed }
func (res *result) setRate(name string, v float64) { res.metrics[name] = v * res.speed }

// endToEnd derives the end-to-end metrics of an untraced run.
func (res *result) endToEnd(setupS float64, comp compileResult, interp, native runResult, serve serveResult) {
	// Compile percentiles are taken over the corpus: each program counts
	// once, with its fastest compile (see runResult.best for why).
	perProgram := comp.bestPerProgram()
	res.set("setup_s", setupS)
	res.setTime("compile_ms_p50", corpusQuantile(perProgram, 0.50))
	res.setTime("compile_ms_p90", corpusQuantile(perProgram, 0.90))
	res.set("compile_alloc_mb", median(comp.allocMB))
	res.set("emit_go_bytes", comp.goBytes)
	res.set("peak_rss_mb", peakRSSMB())
	res.setTime("interp_serial_ms", interp.best(modeSerial))
	res.setTime("interp_parN_ms", interp.best(modeParN))
	res.setTime("native_serial_ms", native.best(modeSerial))
	res.setTime("native_parN_ms", native.best(modeParN))
	res.setRate("serve_rps", serve.rps)
	res.setTime("analyze_hit_ms_p50", median(serve.perClass[classHit]))
	res.setTime("analyze_miss_ms_p50", median(serve.perClass[classMiss]))
	res.setTime("run_req_ms_p50", median(serve.perClass[classRun]))

	res.row("compile, all programs", "ms", comp.all)
	for _, n := range comp.names {
		res.row("  compile "+n, "ms", comp.perProgram[n])
	}
	res.runRows("interp", interp)
	res.runRows("native", native)
	for _, c := range []string{classHit, classMiss, classRun} {
		res.row("serve "+c, "ms", serve.perClass[c])
	}
	res.row("serve, all requests", "ms", serve.all)
}

func (res *result) runRows(engine string, r runResult) {
	for _, p := range r.progs {
		for _, m := range []mode{modeSerial, modeParN, modePar1} {
			if xs := r.samples[p][m.name]; len(xs) > 0 {
				res.row(fmt.Sprintf("  %s %s %s", engine, p, m.name), "ms", xs)
			}
		}
	}
}

// row renders one timing series: sample count, quartiles, and the
// highest percentile that still has ten samples beyond it.
func (res *result) row(label, unit string, xs []float64) {
	s := summarize(xs)
	res.rows = append(res.rows, fmt.Sprintf("%-44s n=%-6d min=%-10.4g q1=%-10.4g median=%-10.4g q3=%-10.4g p%g=%-10.4g %s",
		label, s.n, s.min, s.q1, s.median, s.q3, s.tailP*100, s.tailTime, unit))
}

// layerMetrics derives the per-layer metrics of a traced run.
func (res *result) layerMetrics(e *env, comp compileResult, interp, native runResult, serve serveResult) {
	acc := comp.layers
	for _, d := range perLayerMetrics {
		if _, ok := acc.passes[0][d.name]; ok {
			res.set(d.name, acc.median(d.name))
		}
	}
	res.set("core.pairtest_ms", acc.median("core.analyze_ms")-acc.median("effects.transitive_ms")-acc.median("extent.compute_ms"))
	res.set("trace_overhead", comp.traced.Seconds()/comp.untraced.Seconds())
	res.set("compile_ms_p99", quantile(sorted(comp.all), 0.99))
	res.set("serve_ms_p99", quantile(sorted(serve.all), 0.99))

	// Attribution: a program's pipeline spans must add up to its
	// untraced compile time.
	off := 0
	var shares []float64
	for _, n := range comp.names {
		tracedMS, plainMS := median(acc.perProgram[n]), median(comp.perProgram[n])
		shares = append(shares, tracedMS/plainMS)
		if math.Abs(tracedMS-plainMS) > 0.10*plainMS {
			off++
		}
	}
	verdict := "attributable"
	if med := median(shares); math.Abs(med-1) > 0.10 {
		verdict = "NOT attributable"
	}
	res.rows = append(res.rows, fmt.Sprintf("compile trace %s: layer spans cover %.1f%% of untraced compile time (median over programs; %d of %d programs off by more than 10%%)",
		verdict, 100*median(shares), off, len(comp.names)))

	// Interpreter runtime: construct overhead from par1 vs serial.
	var ratios []float64
	var extraMS, extraAllocs, serialAllocs float64
	for _, p := range interp.progs {
		s, p1 := median(interp.samples[p][modeSerial.name]), median(interp.samples[p][modePar1.name])
		ratios = append(ratios, p1/s)
		extraMS += p1 - s
		extraAllocs += interp.allocs[p][modePar1.name] - interp.allocs[p][modeSerial.name]
		serialAllocs += interp.allocs[p][modeSerial.name]
	}
	for _, p := range interp.progs {
		st := interp.stats[p]
		res.rows = append(res.rows, fmt.Sprintf("  rt %-20s regions %-6d loops %-6d chunks %-6d tasks %-6d locks %-7d guard par/ser %d/%d  spec commit/abort %d/%d",
			p, st.Regions, st.ParallelLoops, st.Chunks, st.Tasks, st.LockAcquires,
			st.GuardParallel, st.GuardSerial, st.SpeculationCommits, st.SpeculationAborts))
	}
	st := sumStats(interp.stats)
	regions := math.Max(float64(st.Regions), 1)
	res.set("interp.run_allocs", serialAllocs)
	res.set("rt.par1_over_serial", geomean(ratios))
	res.set("rt.region_entry_us", extraMS*1e3/regions)
	res.set("rt.allocs_per_region", extraAllocs/regions)
	res.set("rt.regions_n", float64(st.Regions))
	res.set("rt.loops_n", float64(st.ParallelLoops))
	res.set("rt.chunks_n", float64(st.Chunks))
	res.set("rt.tasks_n", float64(st.Tasks))
	res.set("rt.lazy_inlines_n", float64(st.LazyInlines))
	res.set("rt.lock_acquires_n", float64(st.LockAcquires))
	res.set("rt.guard_parallel_n", float64(st.GuardParallel))
	res.set("rt.guard_serial_n", float64(st.GuardSerial))
	res.set("rt.spec_regions_n", float64(st.SpeculativeRegions))
	res.set("rt.spec_commits_n", float64(st.SpeculationCommits))
	res.set("rt.spec_aborts_n", float64(st.SpeculationAborts))
	res.set("rt.spec_commit_ratio", float64(st.SpeculationCommits)/math.Max(float64(st.SpeculativeRegions), 1))
	res.set("rt.serial_fallbacks_n", float64(st.SerialFallbacks))
	res.set("rtkit.steals_n", float64(st.Steals))
	res.set("rtkit.local_pops_n", float64(st.LocalPops))

	res.set("rtkit.spawn_wait_ns", spawnWaitNS())
	res.set("nativert.gss_iter_ns", gssIterNS())
	storeNS, commitUS := journalCosts()
	res.set("nativert.journal_store_ns", storeNS)
	res.set("nativert.commit_us", commitUS)

	ratios = ratios[:0]
	for _, p := range native.progs {
		ratios = append(ratios, median(native.samples[p][modePar1.name])/median(native.samples[p][modeSerial.name]))
	}
	res.set("native.par1_over_serial", geomean(ratios))
	res.set("native.guard_parallel_n", float64(native.native["guard_parallel"]))
	res.set("native.spec_commits_n", float64(native.native["spec_commits"]))
	res.set("native.spec_aborts_n", float64(native.native["spec_aborts"]))
	res.set("nativegen.go_build_ms", float64(e.build.Nanoseconds())/1e6)
	res.set("nativegen.binary_bytes", float64(e.binBytes))

	c := serve.counters
	res.set("server.analyze_direct_us", serve.directUS)
	res.set("server.response_bytes", serve.respBytes)
	res.set("server.cache_hits_n", c.hits)
	res.set("server.cache_misses_n", c.misses)
	res.set("server.cache_evictions_n", c.evictions)
	res.set("server.cache_hit_ratio", c.hits/math.Max(c.hits+c.misses, 1))
	res.set("server.adoptions_n", c.adoptions)
	res.set("server.coalesced_n", c.coalesced)
	res.set("server.rejected_n", c.rejected)
	res.set("fleet.route_us", serve.routeUS)
	res.set("fleet.rerouted_n", c.rerouted)
	res.set("fleet.retries_n", c.retries)

	res.runRows("interp", interp)
	res.runRows("native", native)

	// Every time measured in the rounds is corrected for the machine's
	// speed during this run, as in the untraced run.
	for _, d := range perLayerMetrics {
		if (d.unit == "ms" || d.unit == "us" || d.unit == "ns") && d.name != "nativegen.go_build_ms" {
			res.metrics[d.name] /= res.speed
		}
	}
	res.set("yardstick_ms", res.speed*yardstickNominalMS)
}

// peakRSSMB is the harness process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}

func (res *result) defs() []metricDef {
	if res.cfg.traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// print writes every metric by name with its unit, the detail rows, and
// the operations attempted and failed.
func (res *result) print(w *os.File) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  traced %v\n", res.cfg.wl.name, res.cfg.seed, res.cfg.seconds, res.cfg.traced)
	for _, r := range res.rows {
		fmt.Fprintln(w, r)
	}
	for _, d := range res.defs() {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, res.metrics[d.name], d.unit)
	}
	fmt.Fprintf(w, "ops attempted %d  failed %d\n", res.tally.attempted, res.tally.failed)
}

// printJSON writes the one-line machine-readable result.
func (res *result) printJSON(w *os.File) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.tally.failed == 0, res.tally.attempted, res.tally.failed, map[string]mv{}}
	for _, d := range res.defs() {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fatal(fmt.Errorf("metric %s was not measured (%v)", d.name, v))
		}
		out.Metrics[d.name] = mv{v, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(line))
}
