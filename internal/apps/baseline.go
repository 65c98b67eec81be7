// Package apps assembles the paper's applications (Barnes-Hut, Water,
// and the §2 graph traversal) at configurable workload sizes, and
// models the explicitly parallel SPLASH versions the paper compares
// against (§6.2.5, §6.3.5) as transformations of the automatically
// parallelized traces.
package apps

import (
	"context"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/interp"
	"commute/internal/tracer"
)

// BarnesHut loads the Barnes-Hut application with the given workload.
func BarnesHut(bodies, steps int) (*commute.System, error) {
	return commute.Load("barneshut.mc", src.BarnesHutBase+src.BarnesHutMain(bodies, steps, 12345))
}

// Water loads the Water application with the given workload.
func Water(mols, steps int) (*commute.System, error) {
	return commute.Load("water.mc", src.WaterBase+src.WaterMain(mols, steps, 20231))
}

// Graph loads the graph-traversal example with the given node count.
func Graph(nodes int) (*commute.System, error) {
	return commute.Load("graph.mc", src.GraphBase+src.GraphMain(nodes, 12345))
}

// CondHash loads the conditional-commutativity hash-bucket app: mode 0
// makes the synthesized guard hold (parallel regions), any other mode
// forces the serial fallback.
func CondHash(mode, rounds int) (*commute.System, error) {
	return commute.Load("condhash.mc", src.CondHashBase+src.CondHashMain(mode, rounds))
}

// ---------------------------------------------------------------------
// Explicitly parallel baselines (trace models)
//
// The paper's explicitly parallel versions differ from the compiler's
// output in exactly the ways §6.2.5 and §6.3.5 describe; we model those
// differences as trace transformations so both versions run on the same
// simulated machine.

// ExplicitBarnesHut models the SPLASH-2 Barnes-Hut: the space
// subdivision tree is built in parallel (the automatic version builds
// it serially), and costzones partitioning gives the force phase better
// locality than guided self-scheduling. Per-body force accumulation is
// private, so the per-object locks disappear.
//
// grains is the parallel grain count for the converted serial phases
// (the body count); locality is the force-phase cost factor relative to
// the automatic version (the paper's costzones advantage — we use 0.85).
func ExplicitBarnesHut(tr *tracer.Trace, grains int, locality float64) *tracer.Trace {
	out := &tracer.Trace{}
	for _, ph := range tr.Phases {
		switch {
		case ph.Root == nil && ph.Serial > 10_000:
			// A substantial serial phase (tree construction / center of
			// mass): the explicit version parallelizes ~90% of it over
			// the bodies; insertion synchronization leaves a serial
			// residue.
			parUnits := ph.Serial * 9 / 10
			serUnits := ph.Serial - parUnits
			out.Phases = append(out.Phases, tracer.Phase{
				Label: ph.Label + " (serial residue)", Serial: serUnits,
			})
			out.Phases = append(out.Phases, tracer.Phase{
				Label: ph.Label + " (parallel build)",
				Root:  loopOfEqualIters(parUnits, grains),
			})
		case ph.Root == nil:
			out.Phases = append(out.Phases, ph)
		default:
			out.Phases = append(out.Phases, tracer.Phase{
				Label: ph.Label,
				Root:  stripCrits(scaleTask(ph.Root, locality)),
			})
		}
	}
	return out
}

// ExplicitWater models the SPLASH Water: the shared accumulator
// structures (the force bank and the energy sums) are replicated per
// processor and reduced at phase end, eliminating the lock operations
// and the contention; a small per-phase serial reduction remains.
func ExplicitWater(tr *tracer.Trace, reductionUnits int64) *tracer.Trace {
	out := &tracer.Trace{}
	for _, ph := range tr.Phases {
		if ph.Root == nil {
			out.Phases = append(out.Phases, ph)
			continue
		}
		out.Phases = append(out.Phases, tracer.Phase{
			Label: ph.Label,
			Root:  stripCrits(ph.Root),
		})
		out.Phases = append(out.Phases, tracer.Phase{
			Label:  ph.Label + " (reduction)",
			Serial: reductionUnits,
		})
	}
	return out
}

// loopOfEqualIters builds a region containing one parallel loop of
// `grains` equal-cost iterations totalling units.
func loopOfEqualIters(units int64, grains int) *tracer.Task {
	if grains < 1 {
		grains = 1
	}
	per := units / int64(grains)
	iters := make([]*tracer.Task, grains)
	for i := range iters {
		u := per
		if i == 0 {
			u += units - per*int64(grains) // remainder
		}
		iters[i] = &tracer.Task{Events: []tracer.Event{{Kind: tracer.EvCompute, Units: u}}}
	}
	return &tracer.Task{Events: []tracer.Event{{Kind: tracer.EvLoop, Iters: iters}}}
}

// stripCrits converts critical sections to plain compute (replicated or
// private data needs no locks), recursively.
func stripCrits(t *tracer.Task) *tracer.Task {
	out := &tracer.Task{Events: make([]tracer.Event, 0, len(t.Events))}
	for _, e := range t.Events {
		switch e.Kind {
		case tracer.EvCrit:
			out.Events = append(out.Events, tracer.Event{Kind: tracer.EvCompute, Units: e.Units})
		case tracer.EvSpawn:
			out.Events = append(out.Events, tracer.Event{Kind: tracer.EvSpawn, Child: stripCrits(e.Child)})
		case tracer.EvLoop:
			iters := make([]*tracer.Task, len(e.Iters))
			for i, it := range e.Iters {
				iters[i] = stripCrits(it)
			}
			out.Events = append(out.Events, tracer.Event{Kind: tracer.EvLoop, Iters: iters})
		default:
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// scaleTask multiplies compute costs by f (locality model), recursively.
func scaleTask(t *tracer.Task, f float64) *tracer.Task {
	out := &tracer.Task{Events: make([]tracer.Event, 0, len(t.Events))}
	for _, e := range t.Events {
		switch e.Kind {
		case tracer.EvCompute:
			out.Events = append(out.Events, tracer.Event{Kind: tracer.EvCompute, Units: int64(float64(e.Units) * f)})
		case tracer.EvCrit:
			out.Events = append(out.Events, tracer.Event{Kind: tracer.EvCrit, Obj: e.Obj, Units: int64(float64(e.Units) * f)})
		case tracer.EvSpawn:
			out.Events = append(out.Events, tracer.Event{Kind: tracer.EvSpawn, Child: scaleTask(e.Child, f)})
		case tracer.EvLoop:
			iters := make([]*tracer.Task, len(e.Iters))
			for i, it := range e.Iters {
				iters[i] = scaleTask(it, f)
			}
			out.Events = append(out.Events, tracer.Event{Kind: tracer.EvLoop, Iters: iters})
		}
	}
	return out
}

// PaperPlan is the paper's configuration of sys's program: proven
// extents only, every lock taken (codegen.Build). Only the paper's
// tables and figures read it; every execution and every other view runs
// sys.Plan, which extends it (TestFullPlanExtendsProvenPlan states how).
func PaperPlan(sys *commute.System) *codegen.Plan { return codegen.Build(sys.Analysis) }

// TracePaper traces a system under the paper's configuration (PaperPlan).
func TracePaper(sys *commute.System) (*tracer.Trace, error) {
	return traceUnder(sys, PaperPlan(sys))
}

// TraceWithoutHoisting traces a system under a plan with the §5.4.2
// lock hoisting disabled (every nested operation locks individually).
func TraceWithoutHoisting(sys *commute.System) (*tracer.Trace, error) {
	return traceUnder(sys, codegen.BuildWithOptions(sys.Analysis, codegen.Options{DisableHoisting: true}))
}

// TraceWithNestedLoops traces a system under a plan with the §5.2
// nested-concurrency suppression disabled.
func TraceWithNestedLoops(sys *commute.System) (*tracer.Trace, error) {
	return traceUnder(sys, codegen.BuildWithOptions(sys.Analysis, codegen.Options{DisableSuppression: true}))
}

func traceUnder(sys *commute.System, plan *codegen.Plan) (*tracer.Trace, error) {
	return tracer.Collect(context.TODO(), interp.NewEngine(sys.Prog, nil, interp.EngineWalk), plan)
}
