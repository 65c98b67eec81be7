package interp_test

import (
	"io"
	"sync"
	"testing"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/interp"
)

// TestConcurrentFirstInterpretersShareOneResolution: the first
// interpreters of a program, created at once, resolve it once and
// execute with the one resolution; nothing is held for the program
// before and after a Release.
func TestConcurrentFirstInterpretersShareOneResolution(t *testing.T) {
	sys, err := commute.Load("graph", src.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if interp.Resolved(sys.Prog) {
		t.Fatal("loading resolved the program")
	}
	const n = 8
	res := make([]any, n)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i] = interp.New(sys.Prog, io.Discard).Resolution()
		}()
	}
	wg.Wait()
	for i, r := range res {
		if r != res[0] {
			t.Fatalf("interpreter %d executes with another resolution than interpreter 0", i)
		}
	}
	sys.Release()
	if interp.Resolved(sys.Prog) {
		t.Fatal("Release left the resolution held")
	}
}

// TestReleaseBesideAWalk: a resolution writes nothing into the checked
// program, so releasing and rebuilding it while the tree walker, which
// reads the checker's slots and coercions, runs the program is no race.
func TestReleaseBesideAWalk(t *testing.T) {
	sys, err := commute.Load("graph", src.Graph)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 20 {
			interp.Release(sys.Prog)
			interp.Warm(sys.Prog)
		}
	}()
	for range 20 {
		if _, err := sys.RunSerialEngine(interp.EngineWalk, io.Discard); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
	sys.Release()
}
