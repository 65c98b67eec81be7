package nativert

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// testWorkers sizes the run-wide pool for this package's tests: enough
// workers that loops really have concurrent claimants.
const testWorkers = 4

func TestMain(m *testing.M) {
	Pool(testWorkers)
	os.Exit(m.Run())
}

// TestGSSCoversEveryIteration checks each loop index runs exactly once
// for a grid of shapes and worker counts.
func TestGSSCoversEveryIteration(t *testing.T) {
	cases := []struct{ from, to, step int64 }{
		{0, 100, 1}, {0, 1, 1}, {0, 0, 1}, {5, 50, 3}, {0, 7, 2}, {0, 1000, 1},
	}
	for _, workers := range []int{1, 2, 4, 9} {
		for _, c := range cases {
			var mu sync.Mutex
			counts := make(map[int64]int)
			GSS("m", "site", workers, c.from, c.to, c.step, func() func(int64) {
				return func(i int64) {
					mu.Lock()
					counts[i]++
					mu.Unlock()
				}
			})
			want := 0
			for i := c.from; i < c.to; i += c.step {
				want++
				if counts[i] != 1 {
					t.Fatalf("workers=%d %+v: index %d ran %d times", workers, c, i, counts[i])
				}
			}
			if len(counts) != want {
				t.Fatalf("workers=%d %+v: ran %d distinct indices, want %d", workers, c, len(counts), want)
			}
		}
	}
}

// TestGSSFactoryPerGoroutine checks mk is invoked once per claimant —
// the emitter relies on it for frame copies — for proven and speculative
// loops: every body mk returned counts its iterations in a variable of
// its own (unsynchronized, so the race detector sees a body shared
// between claimants), the counts add up to the iteration space, and
// there are never more bodies than configured workers.
func TestGSSFactoryPerGoroutine(t *testing.T) {
	const total = 1000
	for _, workers := range []int{1, 2, 4, 9} {
		for _, spec := range []bool{false, true} {
			var mu sync.Mutex
			var locals []*int
			mk := func() func(int64) {
				n := new(int)
				mu.Lock()
				locals = append(locals, n)
				mu.Unlock()
				return func(int64) { *n++ }
			}
			w := Pool(testWorkers).External()
			if spec {
				sr := NewSpecRegion(nil, nil)
				SpecGSS(w, sr, "m", "site", workers, 0, total, 1, func(*SpecJournal) func(int64) { return mk() })
				if n := len(sr.journals); n != len(locals) {
					t.Errorf("workers=%d: %d journals for %d claimants", workers, n, len(locals))
				}
				if !sr.Commit() {
					t.Errorf("workers=%d: an empty speculative loop did not commit", workers)
				}
			} else {
				GSSOn(w, "m", "site", workers, 0, total, 1, mk)
			}
			if len(locals) < 1 || len(locals) > workers {
				t.Errorf("workers=%d spec=%v: factory called %d times, want 1..%d", workers, spec, len(locals), workers)
			}
			sum := 0
			for _, n := range locals {
				sum += *n
			}
			if sum != total {
				t.Errorf("workers=%d spec=%v: bodies ran %d iterations, want %d", workers, spec, sum, total)
			}
		}
	}
}

// TestNoGoroutinePerLoop: 1000 proven and 1000 speculative loops never
// hold more goroutines than the pool's workers beyond what was there
// before — the claimants are the caller and pool tasks.
func TestNoGoroutinePerLoop(t *testing.T) {
	base := runtime.NumGoroutine() // the pool's workers are among them
	var peak atomic.Int64
	body := func(int64) {
		if n := int64(runtime.NumGoroutine()); n > peak.Load() {
			peak.Store(n)
		}
	}
	p := Pool(testWorkers)
	for i := 0; i < 1000; i++ {
		GSS("m", "site", testWorkers, 0, 64, 1, func() func(int64) { return body })
		sr := NewSpecRegion(nil, nil)
		SpecGSS(p.External(), sr, "m", "site", testWorkers, 0, 64, 1, func(*SpecJournal) func(int64) { return body })
		p.Drain()
		if !sr.Commit() {
			t.Fatal("an empty speculative loop did not commit")
		}
	}
	if got := peak.Load(); got > int64(base) {
		t.Errorf("%d goroutines while looping, %d before: loops start goroutines", got, base)
	}
}

// TestSteadyStateLoopAllocs: once the records are warm a proven loop
// allocates nothing, and a speculative region only its buffered cells —
// here 16, plus the body closure this test's factory makes per claimant.
func TestSteadyStateLoopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	p := Pool(testWorkers)
	var sink atomic.Int64
	body := func(i int64) { sink.Add(i) }
	mk := func() func(int64) { return body }
	proven := testing.AllocsPerRun(200, func() {
		GSSOn(p.External(), "m", "site", testWorkers, 0, 64, 1, mk)
		p.Drain()
	})
	if proven > 0.1 {
		t.Errorf("%.2f allocations per steady-state proven loop, want 0", proven)
	}

	const cells = 16
	var heap [cells]int64
	ok := map[string]bool{"c.v": true}
	specMk := func(j *SpecJournal) func(int64) {
		return func(i int64) { SpecStore(j, &heap[i], SpecLoad(j, &heap[i], "c.v")+1, "c.v") }
	}
	spec := testing.AllocsPerRun(200, func() {
		sr := NewSpecRegion(ok, ok)
		SpecGSS(p.External(), sr, "m", "site", testWorkers, 0, cells, 1, specMk)
		p.Drain()
		if !sr.Commit() {
			t.Fatal("disjoint stores did not commit")
		}
	})
	if spec > cells+testWorkers+0.1 {
		t.Errorf("%.2f allocations per steady-state speculative region, want ≤ %d cells + %d closures", spec, cells, testWorkers)
	}
	if heap[0] < 200 {
		t.Errorf("heap[0] = %d after 200+ committed increments", heap[0])
	}
}

func TestFormatArgMatchesInterpreter(t *testing.T) {
	for _, tc := range []struct {
		in   any
		want string
	}{
		{int64(42), "42"},
		{int64(-7), "-7"},
		{3.5, "3.5"},
		{1e21, "1e+21"},
		{0.1, "0.1"},
		{true, "TRUE"},
		{false, "FALSE"},
		{"<vector>", "<vector>"},
		{nil, "NULL"},
	} {
		if got := formatArg(tc.in); got != tc.want {
			t.Errorf("formatArg(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestDumperRefsAndFormats(t *testing.T) {
	var buf bytes.Buffer
	d := NewDumper(&buf)
	type obj struct{ x int }
	a, b := &obj{}, &obj{}
	if !d.Begin("g.a", a, "node") {
		t.Fatal("first Begin(a) should return true")
	}
	d.Int("g.a.n", 3)
	d.Float("g.a.f", 0.5)
	d.Bool("g.a.b", true)
	d.Null("g.a.p")
	if !d.Begin("g.b", b, "node") {
		t.Fatal("first Begin(b) should return true")
	}
	if d.Begin("g.b.back", a, "node") {
		t.Fatal("revisit Begin(a) should return false")
	}
	d.Flush()
	want := strings.Join([]string{
		"g.a = node#1",
		"g.a.n = int 3",
		"g.a.f = double 0x3fe0000000000000 (0.5)",
		"g.a.b = bool TRUE",
		"g.a.p = NULL",
		"g.b = node#2",
		"g.b.back = ref#1",
		"",
	}, "\n")
	if buf.String() != want {
		t.Errorf("dump mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}
