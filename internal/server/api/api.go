// Package api defines the JSON types of the commuted serving layer —
// the request/response bodies of /v1/analyze, /v1/run, and
// /v1/simulate, plus the /statusz counter snapshot. The CLI tools speak
// the same schema: commuterun -stats-json emits a RunStats line, so a
// pipeline that parses daemon responses parses CLI output unchanged.
package api

import (
	"fmt"
	"time"

	"commute/internal/cond"
	"commute/internal/rt"
)

// MaxBodyBytes caps one request body, at a replica and at the fleet
// router alike.
const MaxBodyBytes = 4 << 20

// Options selects load-time dialect options; they are part of the
// cache key (commute.Fingerprint).
type Options struct {
	// Transform applies the §7.2 while→tail-recursion rewrite before
	// analysis.
	Transform bool `json:"transform,omitempty"`
}

// SourceRequest identifies the program a request operates on: inline
// source, or a built-in application from the evaluation corpus.
type SourceRequest struct {
	// Name labels the program in diagnostics (default "request.mc").
	Name string `json:"name,omitempty"`
	// Source is the mini-C++ program text.
	Source string `json:"source,omitempty"`
	// App selects a built-in application instead of Source:
	// "barneshut", "water", "graph", "quickstart", "specdisjoint",
	// "specconflict", "condhash" (conditional-commutativity
	// demonstrator, guard-true mode), or "condhash-serial" (the same
	// table in its non-commuting mode, guard false at runtime).
	App string `json:"app,omitempty"`
	// Options are the dialect options (part of the cache key).
	Options Options `json:"options,omitempty"`
}

// AnalyzeRequest asks for the commutativity analysis of a program.
type AnalyzeRequest struct {
	SourceRequest
	// Emit includes the generated parallel source (the paper's Figure 2
	// style output) in the response.
	Emit bool `json:"emit,omitempty"`
}

// MethodReport is the analysis outcome for one method.
type MethodReport struct {
	Method             string `json:"method"`
	Parallel           bool   `json:"parallel"`
	Reason             string `json:"reason,omitempty"`
	ExtentSize         int    `json:"extent_size"`
	AuxiliaryCallSites int    `json:"auxiliary_call_sites"`
	IndependentPairs   int    `json:"independent_pairs"`
	SymbolicPairs      int    `json:"symbolic_pairs"`

	// Confidence is the fraction of the extent's operation pairs the
	// analysis proved commuting: 1 for a proven extent, passed/total
	// when only the symbolic pair stage failed, 0 for a structural
	// rejection.
	Confidence float64 `json:"confidence"`
	// Condition is the rendered residual predicate under which the
	// extent's failing pairs would commute, when one exists;
	// ConditionTree is its structured form.
	Condition     string     `json:"condition,omitempty"`
	ConditionTree *Condition `json:"condition_tree,omitempty"`
	// Guard is Condition weakened to the fragment the runtime can
	// evaluate at region entry (rendered + structured). Guard implies
	// Condition, so running the region in parallel when the guard holds
	// is sound.
	Guard     string     `json:"guard,omitempty"`
	GuardTree *Condition `json:"guard_tree,omitempty"`
	// ConditionalEligible reports whether a rejected extent can run
	// under its synthesized guard (pair-stage failure only, residual
	// predicate synthesized, satisfiable guard).
	ConditionalEligible bool `json:"conditional_eligible,omitempty"`
	// SpeculationEligible reports whether a rejected extent may be run
	// speculatively (pair-stage failure only, no I/O in the extent).
	SpeculationEligible bool `json:"speculation_eligible,omitempty"`
}

// Condition is the structured JSON form of a synthesized
// commutativity predicate (internal/cond.Pred): a positive tree of
// "and"/"or" nodes over "atom" leaves, with "true"/"false" constants.
// Atoms carry the canonical rendering of their symbolic expression;
// references of the form ⟨ec:Class.field@global:G⟩ are
// extent-constant global fields the runtime reads at region entry.
type Condition struct {
	// Kind is "true", "false", "atom", "and", or "or".
	Kind string `json:"kind"`
	// Expr is the atom's canonical symbolic expression (atoms only).
	Expr string `json:"expr,omitempty"`
	// Ps holds the operands of an "and" or "or" node.
	Ps []*Condition `json:"ps,omitempty"`
}

// CondTree converts a synthesized predicate to its structured JSON
// form; nil predicates map to nil (field omitted).
func CondTree(p cond.Pred) *Condition {
	switch x := p.(type) {
	case cond.True:
		return &Condition{Kind: "true"}
	case cond.False:
		return &Condition{Kind: "false"}
	case cond.Atom:
		return &Condition{Kind: "atom", Expr: x.E.Key()}
	case *cond.And:
		c := &Condition{Kind: "and", Ps: make([]*Condition, len(x.Ps))}
		for i, q := range x.Ps {
			c.Ps[i] = CondTree(q)
		}
		return c
	case *cond.Or:
		c := &Condition{Kind: "or", Ps: make([]*Condition, len(x.Ps))}
		for i, q := range x.Ps {
			c.Ps[i] = CondTree(q)
		}
		return c
	}
	return nil
}

// AnalyzeResponse is the commutativity report for a program.
type AnalyzeResponse struct {
	// Key is the program's content address (hex SHA-256 of source and
	// options); Cache is "hit", "miss", or "adopt" (served from a
	// peer's artifact bundle via the shared blob tier) for this request.
	Key   string `json:"key"`
	Cache string `json:"cache"`

	Methods         []MethodReport `json:"methods"`
	ParallelMethods []string       `json:"parallel_methods"`
	// LoopsFound counts the candidate loops (§5.1): a body of local
	// bookkeeping and parallel invocations. LoopsSuppressed of them are
	// nested in another (§5.2) and LoopsRefused more may not run their
	// iterations out of order; found - suppressed - refused run as
	// parallel loops.
	LoopsFound      int     `json:"loops_found"`
	LoopsSuppressed int     `json:"loops_suppressed"`
	LoopsRefused    int     `json:"loops_refused,omitempty"`
	ParallelSource  string  `json:"parallel_source,omitempty"`
	ElapsedMS       float64 `json:"elapsed_ms"`
}

// RunRequest asks for one execution of a program.
type RunRequest struct {
	SourceRequest
	// Mode is "serial" or "parallel" (default "parallel").
	Mode string `json:"mode,omitempty"`
	// Workers is the parallel worker count (default 4, at most
	// MaxRunWorkers).
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds the execution's wall-clock time; the server
	// clamps it to its configured ceiling. 0 means the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxSteps bounds interpreter statements (0: unlimited).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// Speculate is "off" (default), "auto", or "force": speculative
	// parallelization of extents rejected at the symbolic pair stage,
	// with write-buffered execution, validation at the join barrier,
	// and serial re-execution on a violation. "auto" speculates an
	// extent whose analysis confidence is at least 0.5.
	Speculate string `json:"speculate,omitempty"`
	// Conditional enables guarded execution of conditionally-eligible
	// extents: the synthesized guard is evaluated at region entry —
	// parallel when it holds, the serial path otherwise. Requires
	// mode=parallel.
	Conditional bool `json:"conditional,omitempty"`
}

// RunStats is the machine-readable execution summary shared by the
// daemon's /v1/run responses and commuterun -stats-json.
type RunStats struct {
	Mode    string  `json:"mode"`
	Workers int     `json:"workers,omitempty"`
	WallMS  float64 `json:"wall_ms"`

	Regions       int64 `json:"regions,omitempty"`
	ParallelLoops int64 `json:"parallel_loops,omitempty"`
	Chunks        int64 `json:"chunks,omitempty"`
	Iterations    int64 `json:"iterations,omitempty"`
	Tasks         int64 `json:"tasks,omitempty"`
	LockAcquires  int64 `json:"lock_acquires,omitempty"`
	Steals        int64 `json:"steals,omitempty"`
	LocalPops     int64 `json:"local_pops,omitempty"`
	TaskPanics    int64 `json:"task_panics,omitempty"`

	SpeculativeRegions int64 `json:"speculative_regions,omitempty"`
	SpeculationCommits int64 `json:"speculation_commits,omitempty"`
	SpeculationAborts  int64 `json:"speculation_aborts,omitempty"`

	// GuardParallel/GuardSerial count guarded region entries whose
	// synthesized commutativity guard held (region ran parallel) or
	// failed (serial path taken).
	GuardParallel int64 `json:"guard_parallel,omitempty"`
	GuardSerial   int64 `json:"guard_serial,omitempty"`

	// RegionsDeclined counts region-root calls run serially because the
	// root's static work bound is under the cost of entering a region.
	RegionsDeclined int64 `json:"regions_declined,omitempty"`
}

// MaxRunWorkers is the largest worker count a run may ask for. Every
// worker is a goroutine with its own deque, started before the run:
// admission control bounds requests, not their size.
const MaxRunWorkers = 256

// CheckWorkers rejects a worker count outside [1, MaxRunWorkers], the
// bound of /v1/run and of commuterun -mode parallel.
func CheckWorkers(n int) error {
	if n < 1 || n > MaxRunWorkers {
		return fmt.Errorf("workers %d out of range [1, %d]", n, MaxRunWorkers)
	}
	return nil
}

// NewRunStats renders one execution's summary in the wire schema; rs
// is nil for a serial run.
func NewRunStats(mode string, workers int, wall time.Duration, rs *rt.Stats) RunStats {
	st := RunStats{Mode: mode, Workers: workers, WallMS: float64(wall) / float64(time.Millisecond)}
	if rs == nil {
		return st
	}
	st.Regions = rs.Regions
	st.ParallelLoops = rs.ParallelLoops
	st.Chunks = rs.Chunks
	st.Iterations = rs.Iterations
	st.Tasks = rs.Tasks
	st.LockAcquires = rs.LockAcquires
	st.Steals = rs.Steals
	st.LocalPops = rs.LocalPops
	st.TaskPanics = rs.TaskPanics
	st.SpeculativeRegions = rs.SpeculativeRegions
	st.SpeculationCommits = rs.SpeculationCommits
	st.SpeculationAborts = rs.SpeculationAborts
	st.GuardParallel = rs.GuardParallel
	st.GuardSerial = rs.GuardSerial
	st.RegionsDeclined = rs.RegionsDeclined
	return st
}

// RunResponse is the outcome of one execution.
type RunResponse struct {
	Key   string `json:"key"`
	Cache string `json:"cache"`

	// Output is the program's print output, truncated at the server's
	// per-request cap (OutputTruncated reports whether bytes were
	// dropped).
	Output          string   `json:"output"`
	OutputTruncated bool     `json:"output_truncated,omitempty"`
	Stats           RunStats `json:"stats"`
}

// SimulateRequest asks for simulated-multiprocessor speedups.
type SimulateRequest struct {
	SourceRequest
	// Procs are the processor counts to simulate (default
	// 1,2,4,8,16,32).
	Procs []int `json:"procs,omitempty"`
}

// SimPoint is the simulation outcome at one processor count.
type SimPoint struct {
	Procs         int     `json:"procs"`
	TimeMicros    float64 `json:"time_us"`
	Speedup       float64 `json:"speedup"`
	BlockedMicros float64 `json:"blocked_us"`
}

// SimulateResponse is a speedup curve.
type SimulateResponse struct {
	Key     string     `json:"key"`
	Cache   string     `json:"cache"`
	Results []SimPoint `json:"results"`
	// ElapsedMS covers tracing plus all simulations.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// EndpointStats is the per-endpoint latency summary in /statusz.
type EndpointStats struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
}

// ShardStats is one replica's counters in a fleet router's /statusz.
type ShardStats struct {
	URL      string `json:"url"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
	Rerouted int64  `json:"rerouted"`           // requests moved off this shard while it was down
	Retries  int64  `json:"retries"`            // bounded 429 Retry-After retries against this shard
	Probes   int64  `json:"probes,omitempty"`   // active /healthz probes sent while marked down
	Revivals int64  `json:"revivals,omitempty"` // probe-driven down→live transitions
	Down     bool   `json:"down"`
}

// StatusZ is the daemon's counter snapshot.
type StatusZ struct {
	UptimeSec float64 `json:"uptime_sec"`

	Requests   int64 `json:"requests"`
	InFlight   int64 `json:"in_flight"`
	QueueDepth int64 `json:"queue_depth"`
	Rejected   int64 `json:"rejected"` // 429 load sheds
	Panics     int64 `json:"panics"`   // isolated request panics

	SpeculationCommits int64 `json:"speculation_commits"`
	SpeculationAborts  int64 `json:"speculation_aborts"`

	GuardParallel   int64 `json:"guard_parallel,omitempty"`
	GuardSerial     int64 `json:"guard_serial,omitempty"`
	RegionsDeclined int64 `json:"regions_declined,omitempty"`

	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheEntries   int64 `json:"cache_entries"`
	CacheBytes     int64 `json:"cache_bytes"`

	// CacheAdoptions counts analyze requests served from a peer's
	// serialized artifact bundle (the shared blob tier) instead of a
	// local load; ArtifactsPublished counts bundles this replica wrote
	// to the tier after its own cold loads.
	CacheAdoptions     int64 `json:"cache_adoptions,omitempty"`
	ArtifactsPublished int64 `json:"artifacts_published,omitempty"`
	// BatchCoalesced is always 0; read by e2ebench until ROADMAP item 1
	// drops it.
	BatchCoalesced int64 `json:"batch_coalesced,omitempty"`

	Endpoints map[string]EndpointStats `json:"endpoints"`

	// Shards is populated only by the fleet router's /statusz: one
	// entry per replica, keyed by shard name.
	Shards map[string]ShardStats `json:"shards,omitempty"`
}

// Error is the JSON error envelope for non-2xx responses.
type Error struct {
	Error string `json:"error"`
}
