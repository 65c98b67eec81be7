package rt

import (
	"context"

	"commute/internal/codegen"
	"commute/internal/frontend/types"
	"commute/internal/interp"
	"commute/nativert"
)

// The speculation policy is nativert's, with the rest of the entry rule
// (nativert/entry.go); these are its names as the rest of the tree
// spells them.
type SpecMode = nativert.SpecMode

const (
	SpecOff              = nativert.SpecOff
	SpecAuto             = nativert.SpecAuto
	SpecForce            = nativert.SpecForce
	DefaultSpecThreshold = nativert.DefaultSpecThreshold
)

// ParseSpecMode maps a command-line speculation mode name to a SpecMode.
func ParseSpecMode(s string) (SpecMode, bool) { return nativert.ParseSpecMode(s) }

// specLog is an activation's effect monitor in a speculative region: a
// thin interp.Mon adapter from the interpreter's Value cells onto its
// task's nativert.SpecJournal, the one journal of both runtimes (the
// emitted SJ_ versions make the same calls directly). A location is the
// typed pointer of the field slot or array element, and a field slot
// carries the "Class.field" key the emitter writes for the same access
// (Runtime.slotKeys, behind a one-entry class cache: the hot path is a
// pointer compare and an index). Elements carry "": an element access
// reaches its array through a journaled field load, whose key vouches for
// it. Read-your-own-writes, conflict and declared-effect validation,
// commit and recycling are all the journal's.
type specLog struct {
	j    *nativert.SpecJournal     // nil outside speculative regions
	keys map[*types.Class][]string // Runtime.slotKeys
	cl   *types.Class              // the class ks belongs to
	ks   []string
}

func (lg *specLog) key(o *interp.Object, slot int) string {
	if o.Class != lg.cl {
		lg.cl, lg.ks = o.Class, lg.keys[o.Class]
	}
	return lg.ks[slot]
}

func (lg *specLog) LoadField(o *interp.Object, slot int) interp.Value {
	return nativert.SpecLoad(lg.j, &o.Slots[slot], lg.key(o, slot))
}

func (lg *specLog) StoreField(o *interp.Object, slot int, v interp.Value) {
	nativert.SpecStore(lg.j, &o.Slots[slot], v, lg.key(o, slot))
}

func (lg *specLog) LoadElem(a *interp.Array, idx int) interp.Value {
	return nativert.SpecLoad(lg.j, &a.Elems[idx], "")
}

func (lg *specLog) StoreElem(a *interp.Array, idx int, v interp.Value) {
	nativert.SpecStore(lg.j, &a.Elems[idx], v, "")
}

// slotKeys names every object slot of the program the way the emitter
// names the field behind it: the declaring class, a dot, the field. A
// slot with no field behind it keeps "" — no descriptor to violate.
func slotKeys(ip *interp.Interp) map[*types.Class][]string {
	keys := make(map[*types.Class][]string, len(ip.Prog.ClassList))
	for _, cl := range ip.Prog.ClassList {
		ks := make([]string, interp.ClassSlotCount(ip.Prog, cl))
		for slot := range ks {
			if decl, field, ok := ip.SlotField(cl, slot); ok {
				ks[slot] = decl.Name + "." + field
			}
		}
		keys[cl] = ks
	}
	return keys
}

// openSpec opens the journal's region for the extent rooted at e. The
// slot keys are built at the run's first speculative region and e's
// declared-effect key sets (codegen.Plan.SpecKeys, the enumeration the
// emitter writes out) at its own first; both are read-only afterwards,
// so tasks consult them without a lock.
func (rt *Runtime) openSpec(e *methodEntry) *nativert.SpecRegion {
	if rt.slotKeys == nil {
		rt.slotKeys = slotKeys(rt.IP)
	}
	if e.writeOK == nil {
		e.readOK, e.writeOK = map[string]bool{}, map[string]bool{}
		reads, writes := rt.Plan.SpecKeys(e.mp)
		for _, k := range reads {
			e.readOK[k] = true
		}
		for _, k := range writes {
			e.writeOK[k] = true
		}
	}
	rt.spec = nativert.NewSpecRegion(e.readOK, e.writeOK)
	return rt.spec
}

// runSpeculativeRegion executes a statically-rejected extent
// optimistically: journal every task's effects, validate at the join
// barrier, commit the buffered writes on success, and on any failure —
// conflict, undeclared access, user error, captured panic, injected
// fault — discard the buffers and re-run the original serial version.
// The rerun is exact because no buffered write has reached the heap.
// Only the caller's own cancellation or deadline is not retried: the
// caller gave up, so the region returns its error immediately.
func (rt *Runtime) runSpeculativeRegion(e *methodEntry, recv *interp.Object, args []interp.Value) error {
	m := e.mp.Method
	sr := rt.openSpec(e)
	ferr := rt.runRoot(sr.NewJournal(), m, recv, args)
	rt.spec = nil
	if ferr != nil {
		sr.Discard()
	} else if rt.validate(sr, m) {
		rt.Stats.SpeculationCommits++
		return nil
	} else {
		ferr = rt.firstErr()
	}
	if rt.parent != nil && rt.parent.Err() != nil {
		// Never speculate past a caller timeout or cancellation.
		if ferr == nil {
			ferr = context.Cause(rt.parent)
		}
		return ferr
	}
	rt.Stats.SpeculationAborts++
	return rt.rerunSerial(m, recv, args)
}

// rerunSerial re-executes an aborted speculative region's root with the
// original serial version, on the quiescent pool runRoot left behind.
func (rt *Runtime) rerunSerial(m *types.Method, recv *interp.Object, args []interp.Value) error {
	rt.clearErr()
	if rt.runCtx.Err() != nil {
		// The fault cancelled the run below a still-live caller
		// (injected cancellation): re-arm the run context so the
		// serial rerun is not stillborn.
		rt.runCtx, rt.cancel = context.WithCancelCause(rt.parent)
	}
	return rt.callVersion(nil, nil, m, recv, args, codegen.VersionSerial, 0)
}

// validate is the region's validate/commit boundary: the journal checks
// and, when they pass, the single-threaded commit (nativert's
// SpecRegion.Commit), under panic isolation. A panic before Commit
// returns — injected or real — discards the region, so it aborts before
// any buffered write reaches the heap.
func (rt *Runtime) validate(sr *nativert.SpecRegion, m *types.Method) (ok bool) {
	over := false
	defer func() {
		if !over {
			sr.Discard()
		}
	}()
	defer rt.isolate("validate", m)
	rt.injectValidate()
	ok = sr.Commit()
	over = true
	return ok
}
