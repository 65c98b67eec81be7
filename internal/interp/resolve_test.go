package interp_test

import (
	"io"
	"sync"
	"testing"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/interp"
)

// TestConcurrentFirstInterpretersShareOneResolution: the first runs of
// a System, serial and parallel, started at once, build its code once
// and execute with that one Code.
func TestConcurrentFirstInterpretersShareOneResolution(t *testing.T) {
	sys, err := commute.Load("graph", src.Graph)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	codes := make([]*interp.Code, n)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ip *interp.Interp
			var err error
			if i%2 == 0 {
				ip, err = sys.RunSerial(io.Discard)
			} else {
				ip, _, err = sys.RunParallel(2, io.Discard)
			}
			if err != nil {
				t.Error(err)
				return
			}
			codes[i] = ip.Code()
		}()
	}
	wg.Wait()
	for i, c := range codes {
		if c != sys.Code() {
			t.Fatalf("run %d executes with another Code than the System's", i)
		}
	}
}

// TestCompileBesideAWalk: compiling writes nothing into the checked
// program, so building code for it while the tree walker, which reads
// the checker's slots and coercions, runs the program is no race.
func TestCompileBesideAWalk(t *testing.T) {
	sys, err := commute.Load("graph", src.Graph)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 20 {
			interp.Compile(sys.Prog)
		}
	}()
	for range 20 {
		if _, err := sys.RunSerialEngine(interp.EngineWalk, io.Discard); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
}
