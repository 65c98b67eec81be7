package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"commute/internal/server/api"
)

func TestCorpusIsDeterministic(t *testing.T) {
	a, b, c := compileCorpus(7), compileCorpus(7), compileCorpus(8)
	if len(a) != 10+len(corpusShapes()) || len(corpusShapes()) != 56 {
		t.Fatalf("corpus has %d programs over %d shapes", len(a), len(corpusShapes()))
	}
	differ := 0
	for i := range a {
		if a[i].name != b[i].name || a[i].source != b[i].source {
			t.Fatalf("%s: same seed, different source", a[i].name)
		}
		if a[i].source != c[i].source {
			differ++
		}
		// Seeded tokens are fixed-width: sizes must not move with the seed.
		if len(a[i].source) != len(c[i].source) && strings.HasPrefix(a[i].name, "synth-") {
			t.Errorf("%s: %d bytes on seed 7, %d on seed 8", a[i].name, len(a[i].source), len(c[i].source))
		}
	}
	if differ < len(corpusShapes()) {
		t.Errorf("only %d of %d programs change with the seed", differ, len(a))
	}
}

// TestSynthVariantsLoadAndAgree loads one small program of each of the
// seven variants: together they must contain every extent tier, and the
// walker, the compiled engine and a parallel run must agree on each.
// (The benchmark itself makes the same check over the whole corpus in
// its warm-up pass; this keeps the generator honest under go test.)
func TestSynthVariantsLoadAndAgree(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tiers := map[string]int{}
	for i, sh := range corpusShapes()[:7] {
		p := synthProgram(r, i, sh, 2)
		lp, err := loadProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range lp.sys.Reports() {
			switch {
			case rep.Parallel:
				tiers["proven"]++
			case rep.ConditionalEligible:
				tiers["guarded"]++
			case rep.SpeculationEligible:
				tiers["speculative"]++
			}
		}
		if err := checkEnginesAgree(lp); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
		if p.load.Transform != (sh.while > 0) {
			t.Errorf("%s: transform flag does not follow the shape", p.name)
		}
		lp.sys.Release()
	}
	for _, tier := range []string{"proven", "guarded", "speculative"} {
		if tiers[tier] == 0 {
			t.Errorf("no %s extent in the seven variants: %v", tier, tiers)
		}
	}
}

func TestWrongReferenceIsCaught(t *testing.T) {
	lp, err := loadProgram(condhashProgram(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer lp.sys.Release()
	if lp.ref, err = walkerReference(lp.sys); err != nil {
		t.Fatal(err)
	}
	var tl tally
	verifyRuns([]*loadedProg{lp}, nil, false, &tl)
	if tl.failed != 0 || tl.attempted != 2 {
		t.Fatalf("true reference: attempted %d failed %d %v", tl.attempted, tl.failed, tl.first)
	}
	// One wrong digit in the reference's print output and one in its
	// state dump: both the timed-run check and the full check must fire.
	good := lp.ref
	lp.ref.out = strings.Replace(good.out, "1", "2", 1)
	if _, out, _, _, err := runInterp(lp, modeSerial); err != nil || sameText(lp.ref.out, out, 0) == nil {
		t.Errorf("timed-run check did not catch a wrong print reference (err %v)", err)
	}
	lp.ref = good
	lp.ref.dump = strings.Replace(good.dump, "int 1", "int 2", 1)
	if lp.ref.dump == good.dump {
		t.Fatal("dump has no int slot to corrupt")
	}
	tl = tally{}
	verifyRuns([]*loadedProg{lp}, nil, false, &tl)
	if tl.failed != 2 {
		t.Errorf("wrong dump reference: failed %d of %d, want 2 of 2", tl.failed, tl.attempted)
	}
}

func TestSameText(t *testing.T) {
	exact := "g.x = double 0x3ff0000000000000 (1)\nline two\n"
	near := "g.x = double 0x3ff0000000000001 (1.0000000000000002)\nline two\n"
	far := "g.x = double 0x3ff0000000100000 (1.0000000002328306)\nline two\n"
	for _, tc := range []struct {
		name      string
		want, got string
		tol       float64
		same      bool
	}{
		{"identical", exact, exact, 0, true},
		{"one ulp, byte-exact", exact, near, 0, false},
		{"one ulp, tolerant", exact, near, floatTol, true},
		{"2e-10 off, tolerant", exact, far, floatTol, true},
		{"2e-10 off, tighter", exact, far, 1e-12, false},
		{"non-numeric differs", exact, strings.Replace(exact, "two", "2wo", 1), floatTol, false},
		{"line missing", exact, "line two\n", floatTol, false},
	} {
		if err := sameText(tc.want, tc.got, tc.tol); (err == nil) != tc.same {
			t.Errorf("%s: err = %v, want same = %v", tc.name, err, tc.same)
		}
	}
}

func TestQuantilesAndGeomean(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{{0.5, 5}, {0.25, 3}, {0.75, 8}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := quantile(asc, tc.q); got != tc.want {
			t.Errorf("quantile(%.2f) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// 132 samples with one slow class of two: p99 must be an observed
	// value of that class, not a blend with the class below.
	xs := make([]float64, 130, 132)
	for i := range xs {
		xs[i] = 10
	}
	xs = append(xs, 100, 110)
	if got := quantile(sorted(xs), 0.99); got != 100 {
		t.Errorf("p99 of 130×10 + {100,110} = %v, want 100", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(geomean(nil)) || !math.IsNaN(geomean([]float64{1, 0})) {
		t.Error("empty or non-positive input must give NaN, never a number")
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v", got)
	}
}

func TestCorpusQuantile(t *testing.T) {
	asc := make([]float64, 66)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	// p90 of 66 is rank 60: the mean of ranks 58-62. At the ends the
	// window is clipped, not shifted.
	for _, tc := range []struct{ q, want float64 }{{0.90, 60}, {0.50, 33}, {1, 65}, {0, 2}} {
		if got := corpusQuantile(asc, tc.q); got != tc.want {
			t.Errorf("corpusQuantile(%.2f) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(corpusQuantile(nil, 0.5)) {
		t.Error("no programs must give NaN")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {99, 0.5}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50}, // overlaps span 1: counted once
		{ID: 3, Parent: 0, Start: 60, End: 70},
		{ID: 4, Parent: 2, Start: 25, End: 45},
		{ID: 5, Parent: 0, Start: 90, End: 120}, // runs past its parent: clipped
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{0: 40, 1: 20, 2: 10, 3: 10, 4: 20, 5: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	var tr *tracer
	if id := tr.begin("x", -1, 0); id != -1 || tr.end(id) != 0 {
		t.Error("a nil tracer must be a no-op")
	}
}

func TestStatuszDelta(t *testing.T) {
	decode := func(doc string) api.StatusZ {
		var st api.StatusZ
		if err := json.Unmarshal([]byte(doc), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	before := countersFrom(
		[]api.StatusZ{
			decode(`{"cache_hits": 10, "cache_misses": 4, "cache_evictions": 1, "rejected": 0}`),
			decode(`{"cache_hits": 5, "cache_misses": 2, "batch_coalesced": 3}`),
		},
		decode(`{"shards": {"a": {"rerouted": 1, "retries": 0}, "b": {"rerouted": 0, "retries": 2}}}`))
	after := countersFrom(
		[]api.StatusZ{
			decode(`{"cache_hits": 110, "cache_misses": 24, "cache_evictions": 19, "cache_adoptions": 6, "rejected": 1}`),
			decode(`{"cache_hits": 55, "cache_misses": 12, "batch_coalesced": 10}`),
		},
		decode(`{"shards": {"a": {"rerouted": 1, "retries": 0}, "b": {"rerouted": 4, "retries": 2}}}`))
	got := after.delta(before)
	want := fleetCounters{hits: 150, misses: 30, evictions: 18, adoptions: 6, coalesced: 7, rejected: 1, rerouted: 4, retries: 0}
	if got != want {
		t.Errorf("delta = %+v, want %+v", got, want)
	}
}

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the metric
// and workload tables in this package in step.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, harness calibrated for %d", bf.RunSeconds, runSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, harness %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) || len(bf.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("file lists %d + %d metrics, harness %d + %d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, d := range endToEndMetrics {
		m := bf.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %d: file has %+v, harness %+v", i, m, d)
		}
	}
	for i, d := range perLayerMetrics {
		if bf.PerLayer[i].Name != d.name || bf.PerLayer[i].Unit != d.unit {
			t.Errorf("per_layer %d: file has %+v, harness %+v", i, bf.PerLayer[i], d)
		}
	}
}
