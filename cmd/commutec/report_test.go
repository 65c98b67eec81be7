package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"commute"
	"commute/internal/apps/src"
)

var update = flag.Bool("update", false, "rewrite the report goldens")

// reportPrograms are the programs the goldens cover, under the names
// commutec reports them by: every shipped application as -app NAME, and
// the entry and dispatch fixtures as their files under the repository
// root.
func reportPrograms() map[string][2]string {
	progs := map[string][2]string{}
	for _, name := range strings.Split(src.AppNames(), ", ") {
		_, source, _ := src.App(name)
		progs[name] = [2]string{name, source}
	}
	for _, fx := range src.EntryFixtures() {
		progs["entry-"+fx.Name] = [2]string{"internal/apps/src/entry/" + fx.Name + ".mc", fx.Source}
	}
	for _, fx := range src.DispatchFixtures() {
		if fx.Name == "hoist-escape" {
			progs["dispatch-"+fx.Name] = [2]string{"internal/apps/src/dispatch/" + fx.Name + ".mc", fx.Source}
		}
	}
	return progs
}

// reportLines are report lines a golden must hold, each beside the
// golden that holds it: a golden re-recorded without one fails here.
var reportLines = []struct {
	golden, pattern string
	count           int
}{
	// Barnes-Hut's force walk holds one lock.
	{"barneshut", `^coarsened: body::walksub holds body's lock through its mutex version$`, 1},
	// A root that returns a value is no root.
	{"entry-value-proven", `^not a root  table::.* returns int: calls from serial code run the serial version$`, 1},
	{"entry-value-guarded", `^not a root  table::.* returns int: calls from serial code run the serial version$`, 1},
	{"entry-value-spec", `^not a root  table::.* returns int: calls from serial code run the serial version$`, 1},
	// Hoisting refused where the walk leaves the receiver.
	{"dispatch-hoist-escape", `^no hoisting  outer::go  inner::poke invokes acc::add outside the receiver$`, 1},
	// Water's four accumulations run on replicas.
	{"water", `^replicated: `, 4},
	// Condhash's guards, and its declined root.
	{"condhash", `^COND .*table::ingest`, 1},
	{"condhash", `^COND .*bucket::update`, 1},
	{"condhash", `ec:table\.mode@global:H`, 2},
	{"condhash", `^root table::ingest +work [0-9]+ +declined: interp, native$`, 1},
}

// TestReportGolden: the commutec report of every shipped application and
// of the fixtures above is byte-identical to its golden in testdata (go
// test -update rewrites them), and each golden still holds its
// reportLines.
func TestReportGolden(t *testing.T) {
	got := map[string]string{}
	for key, prog := range reportPrograms() {
		sys, err := commute.Load(prog[0], prog[1])
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		var buf bytes.Buffer
		report(&buf, prog[0], sys, false)
		got[key] = buf.String()
		path := filepath.Join("testdata", key+".golden")
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to record)", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: the report differs from %s (run with -update to record):\n%s", key, path, buf.Bytes())
		}
	}
	for _, l := range reportLines {
		if n := len(regexp.MustCompile("(?m)"+l.pattern).FindAllString(got[l.golden], -1)); n != l.count {
			t.Errorf("%s: %d lines match %q, want %d", l.golden, n, l.pattern, l.count)
		}
	}
}
