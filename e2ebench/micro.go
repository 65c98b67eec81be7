package main

// Micro-drivers of the public runtime packages, run in traced runs
// only: they price one scheduler hand-off, one GSS iteration, one
// journaled store and one commit with nothing else in the way.

import (
	"sync/atomic"
	"time"

	"commute/nativert"
	"commute/rtkit"
)

const microN = 20000

// spawnWaitNS is the cost per empty task of spawning microN tasks from
// inside a pool worker (so they land on its deque and idle workers
// steal them) and draining the pool.
func spawnWaitNS() float64 {
	var ran atomic.Int64
	p := rtkit.NewPool(workers, rtkit.Stealing, rtkit.Hooks{})
	t0 := time.Now()
	p.Spawn(p.External(), "root", func(w *rtkit.Worker) {
		for i := 0; i < microN; i++ {
			p.Spawn(w, "leaf", func(*rtkit.Worker) { ran.Add(1) })
		}
	})
	p.Wait()
	d := time.Since(t0)
	if ran.Load() != microN {
		panic("rtkit lost tasks") // a scheduler bug, not a measurement
	}
	return float64(d.Nanoseconds()) / microN
}

// gssIterNS is the cost per iteration of an empty-bodied guided
// self-scheduled loop.
func gssIterNS() float64 {
	const iters = 50 * microN
	var sink atomic.Int64
	t0 := time.Now()
	nativert.GSS("micro", "loop", workers, 0, iters, 1, func() func(int64) {
		var local int64
		return func(i int64) {
			local += i
			if i == iters-1 {
				sink.Store(local)
			}
		}
	})
	return float64(time.Since(t0).Nanoseconds()) / iters
}

// journalCosts returns the cost per SpecStore on disjoint cells (ns) and
// of the Commit that validates and applies them (µs).
func journalCosts() (storeNS, commitUS float64) {
	cells := make([]int64, microN)
	sr := nativert.NewSpecRegion(nil, nil)
	j := sr.NewJournal()
	t0 := time.Now()
	for i := range cells {
		nativert.SpecStore(j, &cells[i], int64(i), "")
	}
	storeNS = float64(time.Since(t0).Nanoseconds()) / microN
	t0 = time.Now()
	ok := sr.Commit()
	commitUS = float64(time.Since(t0).Nanoseconds()) / 1e3
	if !ok || cells[microN-1] != microN-1 {
		panic("nativert journal did not commit disjoint stores")
	}
	return storeNS, commitUS
}
