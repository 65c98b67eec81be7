package nativert

// Write-buffered speculation: the one effect journal of both runtimes.
// The generated SJ_ method versions route every field and element access
// through a per-task SpecJournal directly; internal/rt's monitored
// closures reach the same calls through its interp.Mon adapter, with
// T = interp.Value. A location is identified by its typed Go pointer
// boxed in an interface — one cell, one key — so a pointer to a whole
// array field (*[N]T) and a pointer to its first element (*T) stay
// distinct journal locations, as do an object's field slot and an
// element of the array it refers to. Reads of locations the task already
// wrote return the buffered value (read-your-own-writes); writes never
// touch the heap until the region validates and commits single-threaded
// at the join barrier.

import (
	"sync"
	"sync/atomic"

	"commute/rtkit"
)

// specCell is one buffered write: a typed cell holding the pending
// value, updated in place when the task writes the same location again.
// The type-erased view gives the validator the location and its
// declared-effect key ("" for array elements, which the enclosing
// object's descriptor vouches for) and Commit the heap application — no
// per-store closure, no per-store boxing.
type specCell[T any] struct {
	p    *T
	v    T
	desc string
}

func (c *specCell[T]) apply()          { *c.p = c.v }
func (c *specCell[T]) loc() any        { return c.p }
func (c *specCell[T]) descKey() string { return c.desc }
func (c *specCell[T]) reset()          { *c = specCell[T]{} }

type specCellI interface {
	apply()
	loc() any
	descKey() string
	reset() // drop the location and the value: a spare cell pins nothing
}

// specRead is one logged read: the location and its declared-effect key.
type specRead struct {
	loc  any
	desc string
}

// SpecJournal is one speculative task's effect journal. It is
// goroutine-local while the task runs; the validator reads all
// journals single-threaded after the join barrier.
//
// Writes and reads are kept in insertion order (wcells, rlog); the two
// maps over them only answer "seen before?", so validation and commit
// walk slices, never maps. The most recent write and read locations are
// cached: the dominant speculative access pattern is a method updating
// one field over and over, and the caches turn that from a map operation
// per access into an interface compare plus typed pointer work — the
// difference between walker-speed and hardware-speed speculative
// regions.
//
// A recycled journal keeps its emptied cells in wcells' spare capacity,
// and the n-th new location of the next region takes the n-th of them
// when it holds the same type: the regions of a run write the same
// locations over and over, so a steady-state region allocates no cell
// (internal/rt's TestSteadyStateRegionAllocs holds every kind of region
// at zero).
type SpecJournal struct {
	id     int
	reads  map[any]struct{}
	rlog   []specRead
	writes map[any]specCellI
	wcells []specCellI

	lastW     any
	lastWCell specCellI
	lastR     any
}

// logRead records a read of the pre-region heap at k, once.
func (j *SpecJournal) logRead(k any, desc string) {
	if k == j.lastR {
		return
	}
	j.lastR = k
	if _, ok := j.reads[k]; !ok {
		j.reads[k] = struct{}{}
		j.rlog = append(j.rlog, specRead{k, desc})
	}
}

// SpecLoad reads *p through the journal: a buffered write wins,
// otherwise the read is logged and the frozen pre-region heap value
// returned.
func SpecLoad[T any](j *SpecJournal, p *T, desc string) T {
	k := any(p)
	if k == j.lastW {
		return j.lastWCell.(*specCell[T]).v
	}
	if c, ok := j.writes[k]; ok {
		j.lastW, j.lastWCell = k, c
		return c.(*specCell[T]).v
	}
	j.logRead(k, desc)
	return *p
}

// SpecStore buffers a write of v to *p. The heap is not modified;
// Commit applies the write after validation.
func SpecStore[T any](j *SpecJournal, p *T, v T, desc string) {
	k := any(p)
	if k == j.lastW {
		j.lastWCell.(*specCell[T]).v = v
		return
	}
	if c, ok := j.writes[k]; ok {
		c.(*specCell[T]).v = v
		j.lastW, j.lastWCell = k, c
		return
	}
	var c *specCell[T]
	if n := len(j.wcells); n < cap(j.wcells) {
		c, _ = j.wcells[:n+1][n].(*specCell[T])
	}
	if c == nil {
		c = new(specCell[T])
	}
	c.p, c.v, c.desc = p, v, desc
	j.writes[k] = c
	j.wcells = append(j.wcells, c)
	j.lastW, j.lastWCell = k, c
}

// SpecTouch logs a read of *p and returns p itself, for aggregate-typed
// locations (embedded arrays and objects) that must stay addressable:
// the caller indexes or selects through the returned pointer, and the
// inner accesses journal their own element/field locations. The
// dialect never reassigns an aggregate wholesale, so there is no
// buffered value to redirect to.
func SpecTouch[T any](j *SpecJournal, p *T, desc string) *T {
	k := any(p)
	if k == j.lastW || k == j.lastR {
		return p
	}
	if _, ok := j.writes[k]; !ok {
		j.logRead(k, desc)
	}
	return p
}

// journalKeep is the largest journal (and validator map) kept for the
// next region: clearing a map costs its capacity, not its length, so one
// huge region must not tax every small one after it.
const journalKeep = 1 << 10

// SpecRegion is the state of one speculative region: the per-task
// journals, the extent's declared transitive effects (as "Class.field"
// keys), and the first-failure latch generated code uses where the
// interpreter runtime has panic isolation — rtkit pools run tasks bare,
// so every emitted speculative task body defers CapturePanic and the
// region turns any panic into an abort followed by the exact serial
// rerun.
//
// Regions are recycled: Commit or Discard is a region's last use, and
// hands the region, its emptied journals and the validator's scratch map
// to the next NewSpecRegion.
type SpecRegion struct {
	mu       sync.Mutex
	journals []*SpecJournal // this region's; a journal's id is its index
	free     []*SpecJournal // emptied, for NewJournal
	failed   atomic.Bool

	// readOK/writeOK hold the field keys the extent's declared
	// transitive effect sets overlap (codegen.Plan.SpecKeys, which the
	// emitter writes out as literals and internal/rt calls at a root's
	// first region); nil admits nothing.
	readOK  map[string]bool
	writeOK map[string]bool

	writer map[any]int // validate: location → id of the journal writing it
}

var specRegions sync.Pool // of *SpecRegion

// NewSpecRegion opens a region with the extent's declared-effect key
// sets. The region is the caller's until its Commit or Discard returns.
func NewSpecRegion(readOK, writeOK map[string]bool) *SpecRegion {
	sr, _ := specRegions.Get().(*SpecRegion)
	if sr == nil {
		sr = &SpecRegion{writer: make(map[any]int)}
	}
	sr.readOK, sr.writeOK = readOK, writeOK
	return sr
}

// NewJournal hands out a journal for one speculative task or loop
// claimant.
func (sr *SpecRegion) NewJournal() *SpecJournal {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	var j *SpecJournal
	if n := len(sr.free); n > 0 {
		j, sr.free = sr.free[n-1], sr.free[:n-1]
	} else {
		j = &SpecJournal{reads: make(map[any]struct{}), writes: make(map[any]specCellI)}
	}
	j.id = len(sr.journals)
	sr.journals = append(sr.journals, j)
	return j
}

// CapturePanic is deferred around every speculative task body (the
// region root, spawned tasks, and SpecGSS claimants): a panic —
// structured runtime error or otherwise — marks the region failed and
// is swallowed, because the serial rerun reproduces any deterministic
// error on the caller's goroutine where the generated driver can
// recover it.
func (sr *SpecRegion) CapturePanic() {
	if r := recover(); r != nil {
		sr.failed.Store(true)
	}
}

// Failed reports whether some task already failed, so in-flight
// speculative work can stop early (the interpreter runtime's
// rt.failed fast path).
func (sr *SpecRegion) Failed() bool { return sr.failed.Load() }

// Commit validates the journals at the join barrier and, on success,
// applies every buffered write to the heap single-threaded. It returns
// false — with the heap untouched — when the region must abort: a task
// failed, two tasks' operations did not commute at run time
// (write-write or read-vs-writer overlap), or a field access fell
// outside the extent's declared transitive effects. Either way the
// region is over: Commit recycles it, and the caller must not use it or
// its journals again.
func (sr *SpecRegion) Commit() bool {
	ok := !sr.failed.Load() && sr.validate()
	if ok {
		for _, j := range sr.journals {
			for _, c := range j.wcells {
				c.apply()
			}
		}
	}
	sr.Discard()
	return ok
}

// Discard ends a region that never reaches Commit — the interpreter
// runtime's regions end that way on a user error, a captured panic or
// the caller's cancellation — dropping every buffered write with the
// heap untouched, and empties the region for the next NewSpecRegion:
// journals are cleared and kept (one that outgrew journalKeep is
// dropped), their cells reset in place for reuse, the location caches
// and the failed latch reset. Runs single-threaded after the join
// barrier; the caller must not use the region or its journals again.
func (sr *SpecRegion) Discard() {
	for _, j := range sr.journals {
		if len(j.rlog) > journalKeep || len(j.wcells) > journalKeep {
			continue
		}
		for _, c := range j.wcells {
			c.reset()
		}
		clear(j.reads)
		clear(j.writes)
		clear(j.rlog)
		j.rlog, j.wcells = j.rlog[:0], j.wcells[:0]
		j.lastW, j.lastWCell, j.lastR = nil, nil, nil
		sr.free = append(sr.free, j)
	}
	clear(sr.journals)
	sr.journals = sr.journals[:0]
	if len(sr.writer) > journalKeep {
		sr.writer = make(map[any]int)
	} else {
		clear(sr.writer)
	}
	sr.failed.Store(false)
	sr.readOK, sr.writeOK = nil, nil
	specRegions.Put(sr)
}

// validate checks the journals at the join barrier. Speculation must
// abort on a location written by one task and written or read by another
// (the racing tasks' operations did not commute at run time) and on an
// object-field access outside the extent's declared transitive effects
// (the journal observed something the analysis never reasoned about; a
// declared write covers a read). Element locations carry desc "" and are
// covered by the conflict checks alone: an element access always reaches
// its array through a journaled field load, so the enclosing object's
// descriptor conformance already vouches for it.
func (sr *SpecRegion) validate() bool {
	// Conflicts take two journals with something in them; a region whose
	// work stayed on one task (one claimant, say) has none to look for.
	busy := 0
	for _, j := range sr.journals {
		if len(j.rlog)+len(j.wcells) > 0 {
			busy++
		}
	}
	if busy > 1 {
		writer := sr.writer
		for _, j := range sr.journals {
			for _, c := range j.wcells {
				l := c.loc()
				if w, ok := writer[l]; ok && w != j.id {
					return false
				}
				writer[l] = j.id
			}
		}
		for _, j := range sr.journals {
			for _, r := range j.rlog {
				if w, ok := writer[r.loc]; ok && w != j.id {
					return false
				}
			}
		}
	}
	for _, j := range sr.journals {
		for _, c := range j.wcells {
			if d := c.descKey(); d != "" && !sr.writeOK[d] {
				return false
			}
		}
		for _, r := range j.rlog {
			if r.desc != "" && !sr.readOK[r.desc] && !sr.writeOK[r.desc] {
				return false
			}
		}
	}
	return true
}

// SpecGSS runs a planned-parallel counted loop speculatively on w's
// pool: GSSOn's claim loop with one fresh journal per claimant (taken by
// the claimant itself, like the interpreter's speculative loops), a
// failed-region fast path at every chunk claim, and panic capture. A
// claimant executes its iterations in increasing order, so
// intra-claimant sequencing matches the serial order and only
// cross-claimant interference needs detection.
func SpecGSS(w *rtkit.Worker, sr *SpecRegion, method, site string, workers int, from, to, step int64, mk func(*SpecJournal) func(int64)) {
	runLoop(w, sr, method, site, workers, from, to, step, nil, mk)
}
