package rt

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// InjectedFault is the panic value a FaultPlan raises. It implements
// error so tests can assert errors.As(err, &InjectedFault{}) through
// the TaskError wrapper.
type InjectedFault struct {
	Point string // "spawn", "chunk", "lock", or "validate"
	N     int64  // 1-based count of the event at which the fault fired
}

func (f InjectedFault) Error() string {
	return fmt.Sprintf("injected fault at %s #%d", f.Point, f.N)
}

// ErrInjectedCancel is the cancellation cause recorded when a
// FaultPlan's CancelOnSpawn trigger fires.
var ErrInjectedCancel = errors.New("injected cancellation")

// FaultPlan deterministically injects faults at the runtime's three
// concurrency boundaries — task start (spawn), GSS chunk claim, and
// object-lock acquisition — to prove panic isolation, cancellation,
// and speculation's exact rerun under test. Triggers are 1-based event
// counts (deterministic regardless of scheduling: the Nth event fires the
// fault, whichever goroutine gets there); probabilistic triggers draw
// from a rand.Rand seeded with Seed, so a plan replays identically
// for a fixed seed and event interleaving.
type FaultPlan struct {
	Seed int64

	PanicOnSpawn int64   // panic when the Nth task starts (0 disables)
	PanicOnChunk int64   // panic when the Nth GSS chunk is claimed
	PanicOnLock  int64   // panic when the Nth object lock is acquired
	PanicRate    float64 // additional per-task-start panic probability

	// PanicOnValidate panics when the Nth speculative region reaches
	// its validate/commit boundary — after every task has finished but
	// before any buffered write reaches the heap, the worst moment for
	// the rollback machinery.
	PanicOnValidate int64

	DelayOnSpawn time.Duration // sleep at task start (scheduling skew)
	DelayRate    float64       // probability of the sleep (0: every task)

	CancelOnSpawn int64 // cancel the run when the Nth task starts

	spawns    atomic.Int64
	chunks    atomic.Int64
	locks     atomic.Int64
	validates atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

// coin draws a seeded Bernoulli trial.
func (fp *FaultPlan) coin(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.rng == nil {
		fp.rng = rand.New(rand.NewSource(fp.Seed))
	}
	return fp.rng.Float64() < p
}

// atSpawn records a task start and reports what to inject: an optional
// delay, whether to cancel the run, and a non-zero event count if this
// start should panic.
func (fp *FaultPlan) atSpawn() (delay time.Duration, cancel bool, panicN int64) {
	n := fp.spawns.Add(1)
	if fp.DelayOnSpawn > 0 && (fp.DelayRate <= 0 || fp.coin(fp.DelayRate)) {
		delay = fp.DelayOnSpawn
	}
	cancel = fp.CancelOnSpawn > 0 && n == fp.CancelOnSpawn
	if (fp.PanicOnSpawn > 0 && n == fp.PanicOnSpawn) || fp.coin(fp.PanicRate) {
		panicN = n
	}
	return delay, cancel, panicN
}

// atChunk records a GSS chunk claim; non-zero means panic.
func (fp *FaultPlan) atChunk() int64 {
	n := fp.chunks.Add(1)
	if fp.PanicOnChunk > 0 && n == fp.PanicOnChunk {
		return n
	}
	return 0
}

// atLock records a lock acquisition; non-zero means panic.
func (fp *FaultPlan) atLock() int64 {
	n := fp.locks.Add(1)
	if fp.PanicOnLock > 0 && n == fp.PanicOnLock {
		return n
	}
	return 0
}

// atValidate records a speculation validate/commit boundary; non-zero
// means panic.
func (fp *FaultPlan) atValidate() int64 {
	n := fp.validates.Add(1)
	if fp.PanicOnValidate > 0 && n == fp.PanicOnValidate {
		return n
	}
	return 0
}

// injectSpawn fires the plan's task-start faults. Called inside the
// pool worker's recover scope, so an injected panic surfaces as a
// TaskError, exactly like a real one.
func (rt *Runtime) injectSpawn() {
	if rt.Faults == nil {
		return
	}
	delay, cancel, panicN := rt.Faults.atSpawn()
	if delay > 0 {
		time.Sleep(delay)
	}
	if cancel && rt.cancel != nil {
		rt.cancel(ErrInjectedCancel)
	}
	if panicN > 0 {
		panic(InjectedFault{Point: "spawn", N: panicN})
	}
}

// injectChunk fires the plan's chunk-claim faults inside the GSS
// worker's recover scope.
func (rt *Runtime) injectChunk() {
	if rt.Faults == nil {
		return
	}
	if n := rt.Faults.atChunk(); n > 0 {
		panic(InjectedFault{Point: "chunk", N: n})
	}
}

// injectLock fires the plan's lock-acquisition faults.
func (rt *Runtime) injectLock() {
	if rt.Faults == nil {
		return
	}
	if n := rt.Faults.atLock(); n > 0 {
		panic(InjectedFault{Point: "lock", N: n})
	}
}

// injectValidate fires the plan's speculation-boundary faults inside
// the region's recover scope: the panic aborts the region before
// commit, so the serial rerun must still produce the exact serial
// state.
func (rt *Runtime) injectValidate() {
	if rt.Faults == nil {
		return
	}
	if n := rt.Faults.atValidate(); n > 0 {
		panic(InjectedFault{Point: "validate", N: n})
	}
}
