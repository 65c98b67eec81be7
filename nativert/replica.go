package nativert

import (
	"sync"

	"commute/rtkit"
)

// Replicas is the per-worker replicas of one global accumulator object
// (§6.3.4). Where the plan replicates a call (codegen.ActionReplica), the
// emitted code runs the accumulator's serial version on At(w), the
// replica of the worker executing it, in place of taking the object's
// lock; the region's join folds every replica touched since back into the
// object (Fold). A worker's slot is w.ID()+1, the external handle's 0,
// and only the goroutine holding a handle touches its slot, so none takes
// a lock. The zero value is ready to use.
type Replicas[T any] struct {
	once  sync.Once
	slots []replicaSlot[T]
}

type replicaSlot[T any] struct {
	v       *T
	touched bool
}

// padded keeps one replica off the cache lines of every other: the
// replicas exist so that workers stop writing the same line.
type padded[T any] struct {
	_ [64]byte
	v T
	_ [64]byte
}

// At returns w's replica: zero but for what w's goroutine accumulated in
// it since the last Fold.
func (r *Replicas[T]) At(w *rtkit.Worker) *T {
	r.once.Do(func() { r.slots = make([]replicaSlot[T], w.Pool().Workers()+1) })
	s := &r.slots[w.ID()+1]
	if !s.touched {
		if s.v == nil {
			s.v = &new(padded[T]).v
		}
		s.touched = true
	}
	return s.v
}

// Fold is the join: fold(dst, rep) adds every replica touched since the
// last Fold into dst and zeroes it. The pool has drained, so nothing else
// runs.
func (r *Replicas[T]) Fold(dst *T, fold func(dst, rep *T)) {
	for i := range r.slots {
		if s := &r.slots[i]; s.touched {
			fold(dst, s.v)
			s.touched = false
		}
	}
}
