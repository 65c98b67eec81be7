package nativert

// Region entry: the serial→parallel boundary of §5.3 ("the serial version
// invokes the parallel version and waits"), for both runtimes. Which
// methods a serial caller may enter as a region is the plan's to say
// (codegen.Plan.RegionRoot); which tier an entry then takes is decided
// here, by Enter, from the run's Policy and the root's static facts. The
// interpreter runtime (internal/rt's serialCtx) and every emitted R_
// wrapper switch on its answer, and both count into one Stats.

// SpecMode is the speculation policy for statically-rejected extents.
type SpecMode int

// Speculation policies.
const (
	// SpecOff never speculates: rejected extents run their original
	// serial versions.
	SpecOff SpecMode = iota
	// SpecAuto speculates on extents whose confidence score (fraction
	// of method pairs the analysis proved) reaches DefaultSpecThreshold.
	SpecAuto
	// SpecForce speculates on every eligible rejected extent.
	SpecForce
)

// DefaultSpecThreshold is the SpecAuto confidence cutoff: at least half
// the extent's pairs must have been proven.
const DefaultSpecThreshold = 0.5

// ParseSpecMode maps a speculation mode name (a command-line or request
// word; empty means off) to a SpecMode.
func ParseSpecMode(s string) (SpecMode, bool) {
	switch s {
	case "off", "":
		return SpecOff, true
	case "auto":
		return SpecAuto, true
	case "force":
		return SpecForce, true
	}
	return SpecOff, false
}

func (m SpecMode) String() string {
	switch m {
	case SpecAuto:
		return "auto"
	case SpecForce:
		return "force"
	}
	return "off"
}

// Policy is what one run lets a region entry do. The zero value runs
// everything serially.
type Policy struct {
	// Parallel lets regions open at all (the emitted driver's
	// -mode parallel; the interpreter runtime is always parallel).
	Parallel bool
	// Conditional turns on the guards of conditionally commutative
	// extents: the guard is evaluated at entry and decides between the
	// parallel region and the serial path. Off, such an extent is just an
	// unproven one, left to Speculate.
	Conditional bool
	// Speculate is the policy for extents the analysis rejected but
	// marked speculation-eligible.
	Speculate SpecMode
}

// Root is what the plan says about one region root (codegen.MethodPlan).
// The zero value is a rejected extent that may not speculate: serial
// under every policy.
type Root struct {
	Proven       bool    // the extent commutes: no guard, no journal
	Conditional  bool    // commutes when its guard holds
	SpecEligible bool    // may run under journals
	Confidence   float64 // fraction of the extent's pairs proven
}

// Tier is how one call of a region root from serial code runs.
type Tier int

const (
	Serial      Tier = iota // the serial version, inline
	Parallel                // the parallel version, in a region
	Speculative             // the journaled parallel version, validated at the join
)

// Stats counts run-time events (the raw material for Tables 5, 6 and
// 11). Enter and the region life cycles count entries and their outcomes
// on both runtimes, from the goroutine running the serial code; the
// scheduling and failure-handling counters are the interpreter
// runtime's, which aliases this type as rt.Stats.
type Stats struct {
	ParallelLoops int64 // parallel loop executions
	Chunks        int64 // GSS chunks claimed
	Iterations    int64 // parallel loop iterations
	Tasks         int64 // spawned tasks
	LazyInlines   int64 // never incremented; read by e2ebench until ROADMAP item 1 drops it
	LockAcquires  int64 // object-section lock acquisitions
	Regions       int64 // serial→parallel region transitions
	Steals        int64 // tasks and loop helpers taken from another worker's deque
	LocalPops     int64 // tasks and loop helpers popped from the spawning worker's own deque

	// RegionsDeclined counts calls of a region root from serial code that
	// ran its serial version instead, because the root's static work
	// bound is under the runtime's cost of entering a region.
	RegionsDeclined int64

	TaskPanics      int64 // panics captured and isolated as TaskError
	SerialFallbacks int64 // never incremented; read by e2ebench until ROADMAP item 1 drops it

	SpeculativeRegions int64 // regions entered speculatively
	SpeculationCommits int64 // speculative regions validated and committed
	SpeculationAborts  int64 // speculative regions rolled back and rerun serially

	GuardParallel int64 // conditional regions whose guard held (ran parallel)
	GuardSerial   int64 // conditional regions whose guard failed (ran serial)
}

// Enter decides the tier of one entry of root r and counts it in st. A
// proven extent opens its region. A conditional one under p.Conditional
// asks its guard, which takes precedence over speculation: true opens the
// region, false takes the serial version — unless the policy forces
// speculation, where the journals provide the safety the guard could not
// prove. Any other unproven extent speculates when it is eligible and
// the policy admits it: always under SpecForce, at or above the
// DefaultSpecThreshold under SpecAuto. guard is called at most once, and
// only for a conditional root.
//
// Callers run on the serial code's goroutine, so the counters are plain;
// the granularity cutoff (RegionsDeclined) comes before any of this and
// is each runtime's own.
func (p Policy) Enter(st *Stats, r Root, guard func() bool) Tier {
	spec := false
	switch {
	case !p.Parallel:
		return Serial
	case r.Proven:
		st.Regions++
		return Parallel
	case r.Conditional && p.Conditional:
		if guard() {
			st.GuardParallel++
			st.Regions++
			return Parallel
		}
		st.GuardSerial++
		spec = r.SpecEligible && p.Speculate == SpecForce
	case !r.SpecEligible:
	case p.Speculate == SpecForce:
		spec = true
	case p.Speculate == SpecAuto:
		spec = r.Confidence >= DefaultSpecThreshold
	}
	if !spec {
		return Serial
	}
	st.Regions++
	st.SpeculativeRegions++
	return Speculative
}
