package main

// The four workloads. Every workload drives the same four sections —
// compile a corpus, run programs in the interpreter, run them natively,
// serve a request mix — so every end-to-end metric exists on every
// workload; what a workload chooses is which programs the run sections
// execute and where the operations go. Its own section(s) get most of
// them; the others run at probe size.

import (
	"math/rand"

	"commute/internal/rt"
)

// runSeconds is the --seconds value BENCHMARK.json records; the op
// rates below are calibrated so a run at that value measures for about
// that long on the 2-core reference box. Operation counts are a pure
// function of --seconds, so they are the same on every commit.
const runSeconds = 15

// defaultSeed is used when --seed is not given.
const defaultSeed = 1

type workload struct {
	name string
	why  string
	// interp and native list the programs the run sections execute,
	// sized per engine (native code is ~75x faster than the interpreter).
	interp func(r *rand.Rand) []program
	native func(r *rand.Rand) []program
	// Operations at --seconds = runSeconds.
	compilePasses int
	interpRounds  int
	nativeRounds  int
	serveRequests int
}

// Probe sizes: what a section runs on a workload that is not about it.
const (
	probePasses   = 4
	probeRequests = 3200
)

// appInputSeed feeds the Barnes-Hut and Water input generators of the
// programs that are *run*. It is not derived from --seed: how much work
// a draw of 256 bodies or 128 molecules is varies by about ±10 % with
// the draw, which across the ten seeds of an A/A comparison is
// indistinguishable from a regression. (--seed does feed the mains of
// the applications in the compile corpus, every synthetic program, the
// hot set and the request order.)
const appInputSeed = 12345

// probeShape is the synthetic program the probe run sections and the
// serve mix's /v1/run class execute: four classes, one overwrite and
// one mode-guarded, so a run enters proven, guarded and speculative
// regions.
var probeShape = shape{classes: 4, methods: 4, depth: 2, over: 1, guard: 1}

func probeSynth(r *rand.Rand, rounds int) program {
	p := synthProgram(r, 0, probeShape, rounds)
	p.name = "synth-probe"
	return p
}

func probeInterp(r *rand.Rand) []program {
	return []program{waterProgram(64, 1, appInputSeed), probeSynth(r, 16)}
}

func probeNative(r *rand.Rand) []program {
	return []program{waterProgram(343, 1, appInputSeed), probeSynth(r, 256)}
}

var workloads = []workload{
	{
		name:   "compile-corpus",
		why:    "cold compile of 66 programs: frontend, analysis, codegen and interp warm-up do all the work; runtimes and serving do none",
		interp: probeInterp, native: probeNative,
		compilePasses: 10, interpRounds: 100, nativeRounds: 80, serveRequests: probeRequests,
	},
	{
		name: "run-coarse",
		why:  "Barnes-Hut and Water: time is in method bodies, locks and GSS chunks, a handful of regions per run; entry costs are negligible",
		interp: func(r *rand.Rand) []program {
			return []program{bhProgram(256, 2, appInputSeed), waterProgram(128, 2, appInputSeed)}
		},
		native: func(r *rand.Rand) []program {
			return []program{bhProgram(2048, 2, appInputSeed), waterProgram(512, 2, appInputSeed)}
		},
		compilePasses: probePasses, interpRounds: 30, nativeRounds: 100, serveRequests: probeRequests,
	},
	{
		name: "run-fine",
		why:  "thousands of tiny regions: time is region entry, spawn, guard, journal and commit; guard-true beside guard-false, commit beside abort",
		interp: func(*rand.Rand) []program {
			return []program{condhashProgram(0, 2048), condhashProgram(3, 2048),
				specDisjointProgram(1024), specConflictProgram(1024)}
		},
		native: func(*rand.Rand) []program {
			return []program{condhashProgram(0, 16384), condhashProgram(3, 16384),
				specDisjointProgram(2048), specConflictProgram(8192)}
		},
		compilePasses: probePasses, interpRounds: 28, nativeRounds: 28, serveRequests: probeRequests,
	},
	{
		name:   "serve-mixed",
		why:    "router + 2 replicas, 2 closed-loop clients: 70% cached analyzes, 20% never-seen programs (full load, publish, evict), 10% parallel runs",
		interp: probeInterp, native: probeNative,
		compilePasses: probePasses, interpRounds: 100, nativeRounds: 80, serveRequests: 8000,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled is the op count at the given --seconds (and a fifth of it in a
// traced run), never below floor.
func scaled(n, seconds int, traced bool, floor int) int {
	v := n * seconds / runSeconds
	if traced {
		v /= 5
	}
	return max(v, floor)
}

// metricDef names one reported metric; BENCHMARK.json lists the same
// names and units (a unit test keeps the two in step).
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"compile_ms_p50", "ms"}, {"compile_ms_p90", "ms"},
	{"compile_alloc_mb", "MB"}, {"emit_go_bytes", "bytes"},
	{"peak_rss_mb", "MB"},
	{"interp_serial_ms", "ms"}, {"interp_parN_ms", "ms"},
	{"native_serial_ms", "ms"}, {"native_parN_ms", "ms"},
	{"serve_rps", "1/s"},
	{"analyze_hit_ms_p50", "ms"}, {"analyze_miss_ms_p50", "ms"}, {"run_req_ms_p50", "ms"},
}

var perLayerMetrics = []metricDef{
	{"trace_overhead", "ratio"}, {"yardstick_ms", "ms"},
	{"compile_ms_p99", "ms"}, {"serve_ms_p99", "ms"},
	{"frontend.parse_ms", "ms"}, {"frontend.check_ms", "ms"},
	{"frontend.source_bytes", "bytes"}, {"frontend.ast_nodes", "count"},
	{"transform.rewrite_ms", "ms"}, {"transform.rewrites_n", "count"},
	{"effects.transitive_ms", "ms"}, {"effects.methods_n", "count"},
	{"extent.compute_ms", "ms"}, {"extent.size_sum", "count"},
	{"core.analyze_ms", "ms"}, {"core.pairtest_ms", "ms"}, {"symbolic.pair_exec_ms", "ms"},
	{"core.pairs_independent_n", "count"}, {"core.pairs_symbolic_n", "count"}, {"cond.residuals_n", "count"},
	{"core.extents_proven_n", "count"}, {"core.extents_guarded_n", "count"},
	{"core.extents_speculative_n", "count"}, {"core.extents_serial_n", "count"},
	{"codegen.plan_ms", "ms"}, {"codegen.specplan_ms", "ms"}, {"codegen.condplan_ms", "ms"},
	{"codegen.emit_source_ms", "ms"}, {"codegen.emit_go_ms", "ms"}, {"codegen.emit_source_bytes", "bytes"},
	{"interp.warm_ms", "ms"}, {"interp.run_allocs", "count"},
	{"rt.par1_over_serial", "ratio"}, {"rt.region_entry_us", "us"}, {"rt.allocs_per_region", "count"},
	{"rt.regions_n", "count"}, {"rt.loops_n", "count"}, {"rt.chunks_n", "count"}, {"rt.tasks_n", "count"},
	{"rt.lazy_inlines_n", "count"}, {"rt.lock_acquires_n", "count"},
	{"rt.guard_parallel_n", "count"}, {"rt.guard_serial_n", "count"},
	{"rt.spec_regions_n", "count"}, {"rt.spec_commits_n", "count"}, {"rt.spec_aborts_n", "count"},
	{"rt.spec_commit_ratio", "ratio"}, {"rt.serial_fallbacks_n", "count"},
	{"rtkit.spawn_wait_ns", "ns"}, {"rtkit.steals_n", "count"}, {"rtkit.local_pops_n", "count"},
	{"nativert.gss_iter_ns", "ns"}, {"nativert.journal_store_ns", "ns"}, {"nativert.commit_us", "us"},
	{"native.par1_over_serial", "ratio"}, {"native.guard_parallel_n", "count"},
	{"native.spec_commits_n", "count"}, {"native.spec_aborts_n", "count"},
	{"nativegen.go_build_ms", "ms"}, {"nativegen.binary_bytes", "bytes"},
	{"server.analyze_direct_us", "us"}, {"server.response_bytes", "bytes"},
	{"server.cache_hits_n", "count"}, {"server.cache_misses_n", "count"}, {"server.cache_evictions_n", "count"},
	{"server.cache_hit_ratio", "ratio"}, {"server.adoptions_n", "count"},
	{"server.coalesced_n", "count"}, {"server.rejected_n", "count"},
	{"fleet.route_us", "us"}, {"fleet.rerouted_n", "count"}, {"fleet.retries_n", "count"},
}

// sumStats adds up the parallel-run counters of a set of programs.
func sumStats(by map[string]rt.Stats) rt.Stats {
	var t rt.Stats
	for _, s := range by {
		t.ParallelLoops += s.ParallelLoops
		t.Chunks += s.Chunks
		t.Iterations += s.Iterations
		t.Tasks += s.Tasks
		t.LazyInlines += s.LazyInlines
		t.LockAcquires += s.LockAcquires
		t.Regions += s.Regions
		t.Steals += s.Steals
		t.LocalPops += s.LocalPops
		t.SerialFallbacks += s.SerialFallbacks
		t.SpeculativeRegions += s.SpeculativeRegions
		t.SpeculationCommits += s.SpeculationCommits
		t.SpeculationAborts += s.SpeculationAborts
		t.GuardParallel += s.GuardParallel
		t.GuardSerial += s.GuardSerial
	}
	return t
}
