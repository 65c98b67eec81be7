package commute_test

import (
	"bytes"
	"strings"
	"testing"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/codegen"
)

func TestLoadErrors(t *testing.T) {
	if _, err := commute.Load("bad.mc", "class {"); err == nil {
		t.Error("expected parse error")
	}
	if _, err := commute.Load("bad.mc", `
class a { public: int x; void m(); };
void a::m() { y = 1; }
`); err == nil || !strings.Contains(err.Error(), "type check") {
		t.Errorf("expected type-check error, got %v", err)
	}
}

func TestLoadFiles(t *testing.T) {
	sources := map[string]string{
		"classes.mc": `
class acc { public: int n; void add(int k); };
void acc::add(int k) { n = n + k; }
acc A;
`,
		"main.mc": `
class tally { public: int hits; void hit(); };
void tally::hit() { hits = hits + 1; }
tally T;
void main() {
  A.add(1);
  A.add(2);
  T.hit();
}
`,
	}
	sys, err := commute.LoadFiles(sources)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := sys.RunSerial(nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sys.ReadInt(ip, "A.n")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("A.n = %d, want 3", n)
	}

	// Files are parsed in name order, whatever order the map yields them
	// in: every load emits the same Go package, byte for byte.
	emit := func(sys *commute.System) map[string][]byte {
		files, err := sys.CondPlan.EmitGoPackage(codegen.EmitGoOptions{AppName: "loadfiles"})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	want := emit(sys)
	for i := 0; i < 20; i++ {
		again, err := commute.LoadFiles(sources)
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range emit(again) {
			if !bytes.Equal(data, want[name]) {
				t.Fatalf("load %d: emitted %s differs from the first load's", i+2, name)
			}
		}
	}
}

func TestFacadePipeline(t *testing.T) {
	sys, err := commute.Load("graph.mc", src.Graph)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Report("builder::traverse")
	if r == nil || !r.Parallel {
		t.Fatal("traverse should be parallel")
	}
	if sys.Report("no::such") != nil {
		t.Error("unknown method should yield nil report")
	}
	names := sys.ParallelMethods()
	found := false
	for _, n := range names {
		if n == "graph::visit" {
			found = true
		}
	}
	if !found {
		t.Errorf("ParallelMethods() = %v, missing graph::visit", names)
	}

	var out bytes.Buffer
	if _, err := sys.RunSerial(&out); err != nil {
		t.Fatal(err)
	}
	_, stats, err := sys.RunParallel(4, &out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Regions == 0 {
		t.Error("no parallel regions executed")
	}

	tr, err := sys.Trace()
	if err != nil {
		t.Fatal(err)
	}
	res1 := commute.Simulate(tr, 1)
	res8 := commute.Simulate(tr, 8)
	if res8.TimeMicros >= res1.TimeMicros {
		t.Errorf("no simulated speedup: %f vs %f", res1.TimeMicros, res8.TimeMicros)
	}
}

func TestReadPaths(t *testing.T) {
	sys, err := commute.Load("bh.mc", src.BarnesHut)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := sys.RunSerial(nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sys.ReadInt(ip, "Nbody.numbodies")
	if err != nil || n != 256 {
		t.Fatalf("numbodies = %d (%v)", n, err)
	}
	x, err := sys.ReadFloat(ip, "Nbody.bodies[0].pos.val[0]")
	if err != nil {
		t.Fatal(err)
	}
	if x < 0 || x > 4 {
		t.Errorf("pos out of box: %f", x)
	}
	// Error paths.
	for _, bad := range []string{
		"Nope.x", "Nbody.nope", "Nbody.bodies[99999].phi",
		"Nbody.numbodies[0]", "Nbody.bodies[0].pos.val[0].deeper",
	} {
		if _, err := sys.Read(ip, bad); err == nil {
			t.Errorf("Read(%q) should fail", bad)
		}
	}
}
