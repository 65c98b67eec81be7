package commute_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"commute"
	"commute/internal/apps/src"
)

// TestSharedSystemStress hammers one cached *System from 32 goroutines
// mixing serial execution, parallel execution, tracing, and analysis
// reads — the daemon's steady state, where many requests share one
// warm cache entry. Run under -race, it verifies the per-program
// resolution/compile caches publish safely (no torn publication) and
// that nothing in the read path mutates shared state.
func TestSharedSystemStress(t *testing.T) {
	sys, err := commute.LoadOpts("graph.mc", src.Graph, commute.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Reference output from one serial run.
	var want bytes.Buffer
	if _, err := sys.RunSerial(&want); err != nil {
		t.Fatal(err)
	}

	const goroutines = 32
	iters := 3
	if testing.Short() {
		iters = 1
	}
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 4 {
				case 0:
					var out bytes.Buffer
					if _, err := sys.RunSerial(&out); err != nil {
						errc <- err
						continue
					}
					if out.String() != want.String() {
						t.Errorf("serial output diverged under concurrency")
					}
				case 1:
					var out bytes.Buffer
					if _, _, err := sys.RunParallel(4, &out); err != nil {
						errc <- err
						continue
					}
					if out.String() != want.String() {
						t.Errorf("parallel output diverged under concurrency")
					}
				case 2:
					if _, err := sys.Trace(context.Background()); err != nil {
						errc <- err
					}
				case 3:
					r := sys.Report("graph::visit")
					if r == nil || !r.Parallel {
						t.Errorf("analysis report changed under concurrency: %+v", r)
					}
					if len(sys.ParallelMethods()) == 0 {
						t.Errorf("parallel methods vanished under concurrency")
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestConcurrentFirstUse creates many interpreters for freshly loaded
// programs from many goroutines at once: the per-program resolution
// and closure-compilation pass must run exactly once per program (the
// sync.Once entry) while different programs build concurrently.
func TestConcurrentFirstUse(t *testing.T) {
	const programs = 4
	systems := make([]*commute.System, programs)
	for i := range systems {
		// Distinct sources → distinct *types.Program cache entries.
		sys, err := commute.Load("quickstart.mc", src.GraphBase+src.GraphMain(32+i, 7))
		if err != nil {
			t.Fatal(err)
		}
		systems[i] = sys
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sys := systems[g%programs]
			var out bytes.Buffer
			if _, err := sys.RunSerial(&out); err != nil {
				t.Errorf("run: %v", err)
			}
		}(g)
	}
	wg.Wait()

	// Release and re-run: the rebuild path must be identical.
	for _, sys := range systems {
		sys.Release()
		var out bytes.Buffer
		if _, err := sys.RunSerial(&out); err != nil {
			t.Errorf("run after Release: %v", err)
		}
	}
}
