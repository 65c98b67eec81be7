package codegen_test

import (
	"bytes"
	"flag"
	"go/format"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"commute"
	"commute/internal/apps"
	"commute/internal/apps/src"
	"commute/internal/codegen"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestEmitGoGolden pins the emitted Go source for the §2 graph
// traversal — the paper's running example — so any unintended change
// to naming, version selection, or statement lowering shows up as a
// reviewable diff.
func TestEmitGoGolden(t *testing.T) {
	sys, err := apps.Graph(8)
	if err != nil {
		t.Fatal(err)
	}
	files, err := sys.Plan.EmitGoPackage(codegen.EmitGoOptions{AppName: "graph"})
	if err != nil {
		t.Fatal(err)
	}
	for name, golden := range map[string]string{
		"prog.go": "graph_prog.go.golden",
		"main.go": "graph_main.go.golden",
	} {
		path := filepath.Join("testdata", golden)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, files[name], 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to record)", err)
		}
		if !bytes.Equal(files[name], want) {
			t.Errorf("%s differs from %s (run with -update to record):\n%s",
				name, path, files[name])
		}
	}
}

// TestEmitGoDeterministic checks generation is reproducible and
// already gofmt-formatted: two emissions are byte-identical and
// formatting is a fixed point.
func TestEmitGoDeterministic(t *testing.T) {
	for _, app := range []struct {
		name string
		load func() (map[string][]byte, error)
	}{
		{"graph", func() (map[string][]byte, error) {
			sys, err := apps.Graph(8)
			if err != nil {
				return nil, err
			}
			return sys.Plan.EmitGoPackage(codegen.EmitGoOptions{AppName: "graph"})
		}},
		{"barneshut", func() (map[string][]byte, error) {
			sys, err := apps.BarnesHut(16, 1)
			if err != nil {
				return nil, err
			}
			return sys.Plan.EmitGoPackage(codegen.EmitGoOptions{AppName: "barneshut"})
		}},
		{"water", func() (map[string][]byte, error) {
			sys, err := apps.Water(8, 1)
			if err != nil {
				return nil, err
			}
			return sys.Plan.EmitGoPackage(codegen.EmitGoOptions{AppName: "water"})
		}},
	} {
		a, err := app.load()
		if err != nil {
			t.Fatalf("%s: %v", app.name, err)
		}
		b, err := app.load()
		if err != nil {
			t.Fatalf("%s: %v", app.name, err)
		}
		for name := range a {
			if !bytes.Equal(a[name], b[name]) {
				t.Errorf("%s/%s: two emissions differ", app.name, name)
			}
			fmted, err := format.Source(a[name])
			if err != nil {
				t.Errorf("%s/%s: not parseable: %v", app.name, name, err)
			} else if !bytes.Equal(fmted, a[name]) {
				t.Errorf("%s/%s: emitted source is not gofmt-stable", app.name, name)
			}
		}
	}
}

// TestEmitGoLowersSpeculativePlans: speculative extents lower to
// journaled SJ_ method versions plus a policy-dispatching R_ wrapper —
// the native backend buffers writes in nativert.SpecJournal instead of
// refusing the plan.
func TestEmitGoLowersSpeculativePlans(t *testing.T) {
	sys, err := commute.Load("spec.mc", src.SpecDisjoint)
	if err != nil {
		t.Fatal(err)
	}
	plan := codegen.BuildWithOptions(sys.Analysis, codegen.Options{SpeculateRejected: true})
	hasSpec := false
	for _, mp := range plan.Methods {
		if mp.Speculative {
			hasSpec = true
		}
	}
	if !hasSpec {
		t.Skip("no speculative methods in plan")
	}
	files, err := plan.EmitGoPackage(codegen.EmitGoOptions{AppName: "spec"})
	if err != nil {
		t.Fatalf("EmitGoPackage refused a speculative plan: %v", err)
	}
	prog := string(files["prog.go"])
	for _, want := range []string{"SJ_", "nativert.SpecStore", "nativert.NewSpecRegion", "sr_.Commit()"} {
		if !strings.Contains(prog, want) {
			t.Errorf("prog.go missing %q", want)
		}
	}
	main := string(files["main.go"])
	for _, want := range []string{`flag.String("speculate"`, "specAllowed_", "spec_commits"} {
		if !strings.Contains(main, want) {
			t.Errorf("main.go missing %q", want)
		}
	}
	for name, src := range files {
		if _, err := format.Source(src); err != nil {
			t.Errorf("%s: not parseable: %v", name, err)
		}
	}
}
