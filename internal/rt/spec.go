package rt

import (
	"context"
	"sync"
	"sync/atomic"

	"commute/internal/analysis/effects"
	"commute/internal/codegen"
	"commute/internal/frontend/types"
	"commute/internal/interp"
)

// SpecMode is the speculation policy for statically-rejected extents.
type SpecMode int

// Speculation policies.
const (
	// SpecOff never speculates: rejected extents run their original
	// serial versions.
	SpecOff SpecMode = iota
	// SpecAuto speculates on extents whose confidence score (fraction
	// of method pairs the analysis proved) reaches the threshold.
	SpecAuto
	// SpecForce speculates on every eligible rejected extent.
	SpecForce
)

// DefaultSpecThreshold is the SpecAuto confidence cutoff when none is
// configured: at least half the extent's pairs must have been proven.
const DefaultSpecThreshold = 0.5

// ParseSpecMode maps a command-line speculation mode name to a SpecMode.
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

// speculationAllowed applies the policy at region entry.
func (rt *Runtime) speculationAllowed(mp *codegen.MethodPlan) bool {
	if !mp.SpecEligible {
		return false
	}
	switch rt.Speculate {
	case SpecForce:
		return true
	case SpecAuto:
		th := rt.SpecThreshold
		if th <= 0 {
			th = DefaultSpecThreshold
		}
		return mp.Confidence >= th
	}
	return false
}

// loc identifies one monitored storage location: a field slot of an
// object (obj non-nil) or an element of an array (arr non-nil).
type loc struct {
	obj *interp.Object
	arr *interp.Array
	idx int
}

// specLog is one task's effect journal, implementing interp.Mon. Reads
// of locations the task has already written return the buffered value
// (read-your-own-writes); everything else reads the frozen pre-region
// heap and is logged. Writes never touch the heap — commit applies
// them after validation, and abort simply drops the log. A specLog is
// goroutine-local while its task runs; the validator reads all logs
// single-threaded after the join barrier.
//
// The journal is two insertion-ordered location lists — wlocs with the
// buffered values beside it, rlocs — and two maps over them that only
// answer membership, so validation and commit walk slices, never maps.
// The most recent write and read locations are cached: the dominant
// speculative access pattern is a method updating one field over and
// over, and the cache turns that from two map operations per access
// into an index, so the journal no longer swamps what the fast engines
// gained. The zero loc matches no real location, so the empty caches
// never produce a false hit.
type specLog struct {
	id     int
	reads  map[loc]struct{}
	rlocs  []loc
	writes map[loc]int // location → its index in wlocs and vals
	wlocs  []loc
	vals   []interp.Value

	lastW  loc
	lastWi int
	lastR  loc
}

func (lg *specLog) store(l loc, v interp.Value) {
	if l != lg.lastW {
		i, ok := lg.writes[l]
		if !ok {
			i = len(lg.wlocs)
			lg.wlocs = append(lg.wlocs, l)
			lg.vals = append(lg.vals, v)
			lg.writes[l] = i
		}
		lg.lastW, lg.lastWi = l, i
	}
	lg.vals[lg.lastWi] = v
}

// buffered returns the task's own pending write to l; when there is
// none the access is a read of the pre-region heap, and is logged.
func (lg *specLog) buffered(l loc) (interp.Value, bool) {
	if l != lg.lastW {
		i, ok := lg.writes[l]
		if !ok {
			if l != lg.lastR {
				lg.lastR = l
				n := len(lg.reads)
				lg.reads[l] = struct{}{}
				if len(lg.reads) > n {
					lg.rlocs = append(lg.rlocs, l)
				}
			}
			return interp.Value{}, false
		}
		lg.lastW, lg.lastWi = l, i
	}
	return lg.vals[lg.lastWi], true
}

func (lg *specLog) LoadField(o *interp.Object, slot int) interp.Value {
	if v, ok := lg.buffered(loc{obj: o, idx: slot}); ok {
		return v
	}
	return o.Slots[slot]
}

func (lg *specLog) StoreField(o *interp.Object, slot int, v interp.Value) {
	lg.store(loc{obj: o, idx: slot}, v)
}

func (lg *specLog) LoadElem(a *interp.Array, idx int) interp.Value {
	if v, ok := lg.buffered(loc{arr: a, idx: idx}); ok {
		return v
	}
	return a.Elems[idx]
}

func (lg *specLog) StoreElem(a *interp.Array, idx int, v interp.Value) {
	lg.store(loc{arr: a, idx: idx}, v)
}

// journalKeep is the largest map a journal keeps for the next region:
// clearing a map costs its capacity, not its length, so one huge region
// must not tax every small one after it.
const journalKeep = 1 << 10

// emptied returns m ready for reuse — cleared, or replaced when it has
// grown past journalKeep.
func emptied[V any](m map[loc]V) map[loc]V {
	if len(m) > journalKeep {
		return make(map[loc]V)
	}
	clear(m)
	return m
}

// specRegion is the speculation state of a Runtime: the journals of the
// region in flight (one at a time) and, between regions, the emptied
// journals and validation scratch the next one reuses.
type specRegion struct {
	ip *interp.Interp
	mp *codegen.MethodPlan // the region's root: carries the declared effects

	mu   sync.Mutex
	logs []*specLog // this region's journals; a log's id is its index
	free []*specLog

	writer map[loc]int // conforms: location → id of the log writing it
	// declared caches whether a field access conforms to a root's
	// declared effects: the answer depends only on the root, the object's
	// class and the slot, and costs a layout scan and a descriptor-set
	// walk.
	declared map[fieldKey]access
}

type fieldKey struct {
	root *codegen.MethodPlan
	cl   *types.Class
	slot int
}

// access says which accesses of a field the root's declared effects cover.
type access uint8

const (
	mayRead access = 1 << iota
	mayWrite
)

// begin opens a region rooted at mp and hands out its root journal.
func (sr *specRegion) begin(ip *interp.Interp, mp *codegen.MethodPlan) *specLog {
	if sr.declared == nil {
		sr.writer = make(map[loc]int)
		sr.declared = make(map[fieldKey]access)
	}
	sr.ip, sr.mp = ip, mp
	return sr.newLog()
}

// newLog hands out a journal for one speculative task or loop claimant.
func (sr *specRegion) newLog() *specLog {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	var lg *specLog
	if n := len(sr.free); n > 0 {
		lg, sr.free = sr.free[n-1], sr.free[:n-1]
	} else {
		lg = &specLog{reads: make(map[loc]struct{}), writes: make(map[loc]int)}
	}
	lg.id = len(sr.logs)
	sr.logs = append(sr.logs, lg)
	return lg
}

// discard drops the region's journals, buffered writes included, and the
// validation scratch, and keeps their storage. Runs single-threaded
// after the join barrier.
func (sr *specRegion) discard() {
	for _, lg := range sr.logs {
		lg.reads, lg.writes = emptied(lg.reads), emptied(lg.writes)
		clear(lg.rlocs)
		clear(lg.wlocs)
		clear(lg.vals)
		lg.rlocs, lg.wlocs, lg.vals = lg.rlocs[:0], lg.wlocs[:0], lg.vals[:0]
		lg.lastW, lg.lastR = loc{}, loc{}
	}
	sr.free = append(sr.free, sr.logs...)
	clear(sr.logs)
	sr.logs = sr.logs[:0]
	sr.writer = emptied(sr.writer)
}

// runSpeculativeRegion executes a statically-rejected extent
// optimistically: monitor every task's effects, validate at the join
// barrier, commit the buffered writes on success, and on any failure —
// conflict, undeclared access, user error, captured panic, injected
// fault — discard the buffers and re-run the original serial version.
// The rerun is exact because no buffered write has reached the heap.
// Only the caller's own cancellation or deadline is not retried: the
// caller gave up, so the region returns its error immediately.
func (rt *Runtime) runSpeculativeRegion(mp *codegen.MethodPlan, recv *interp.Object, args []interp.Value) error {
	atomic.AddInt64(&rt.Stats.Regions, 1)
	atomic.AddInt64(&rt.Stats.SpeculativeRegions, 1)
	sr := &rt.spec
	defer sr.discard()
	ferr := rt.runRoot(sr.begin(rt.IP, mp), mp.Method, recv, args)
	if ferr == nil {
		if rt.validate() {
			// Single-threaded commit after the barrier: validation
			// proved the write sets disjoint, so application order
			// across logs cannot matter.
			sr.commit()
			atomic.AddInt64(&rt.Stats.SpeculationCommits, 1)
			return nil
		}
		ferr = rt.firstErr()
	}
	if rt.parent != nil && rt.parent.Err() != nil {
		// Never speculate past a caller timeout or cancellation.
		if ferr == nil {
			ferr = context.Cause(rt.parent)
		}
		return ferr
	}
	atomic.AddInt64(&rt.Stats.SpeculationAborts, 1)
	return rt.rerunSerial(mp.Method, recv, args)
}

// validate runs the journal checks at the region's validate/commit
// boundary under panic isolation (a panic there — injected or real —
// aborts the region before any buffered write reaches the heap).
func (rt *Runtime) validate() (ok bool) {
	defer rt.isolate("validate", rt.spec.mp.Method)
	rt.injectValidate()
	return rt.spec.conforms()
}

// conforms checks the journals at the join barrier. Speculation must
// abort when it finds
//
//   - a location written by one task and written or read by another
//     (the racing tasks' operations did not commute at run time), or
//   - an object-field access outside the extent's declared transitive
//     effects (the monitor observed something the analysis never
//     reasoned about).
//
// Array elements are covered by the conflict checks only: an element
// access always reaches the array through a monitored field load, so
// the enclosing object's descriptor conformance already vouches for it.
func (sr *specRegion) conforms() bool {
	// Conflicts take two journals with something in them; a region whose
	// work stayed on one task (one claimant, say) has none to look for.
	busy := 0
	for _, lg := range sr.logs {
		if len(lg.wlocs)+len(lg.rlocs) > 0 {
			busy++
		}
	}
	if busy > 1 {
		writer := sr.writer
		for _, lg := range sr.logs {
			for _, l := range lg.wlocs {
				if w, ok := writer[l]; ok && w != lg.id {
					return false // write-write conflict
				}
				writer[l] = lg.id
			}
		}
		for _, lg := range sr.logs {
			for _, l := range lg.rlocs {
				if w, ok := writer[l]; ok && w != lg.id {
					return false // read-write conflict
				}
			}
		}
	}
	for _, lg := range sr.logs {
		for _, l := range lg.wlocs {
			if l.obj != nil && sr.declaredAccess(l)&mayWrite == 0 {
				return false // undeclared write
			}
		}
		for _, l := range lg.rlocs {
			if l.obj != nil && sr.declaredAccess(l) == 0 {
				return false // undeclared read
			}
		}
	}
	return true
}

// declaredAccess maps an observed object-field location back to the
// effect descriptor the analysis reasons about and tests it against the
// root's declared reads and writes (a declared write covers a read). A
// slot with no field behind it has no descriptor to violate.
func (sr *specRegion) declaredAccess(l loc) access {
	k := fieldKey{sr.mp, l.obj.Class, l.idx}
	acc, ok := sr.declared[k]
	if !ok {
		acc = mayRead | mayWrite
		if decl, field, ok := sr.ip.SlotField(k.cl, k.slot); ok {
			d := effects.FieldDesc(decl, nil, field)
			if !sr.mp.SpecWrites.OverlapsDesc(d) {
				acc &^= mayWrite
				if !sr.mp.SpecReads.OverlapsDesc(d) {
					acc = 0
				}
			}
		}
		sr.declared[k] = acc
	}
	return acc
}

// commit applies every journal's buffered writes to the heap. Runs
// single-threaded after the region's Drain; validation proved the logs'
// write sets disjoint, so application order is irrelevant.
func (sr *specRegion) commit() {
	for _, lg := range sr.logs {
		for i, l := range lg.wlocs {
			if l.obj != nil {
				l.obj.Slots[l.idx] = lg.vals[i]
			} else {
				l.arr.Elems[l.idx] = lg.vals[i]
			}
		}
	}
}
