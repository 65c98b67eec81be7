package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"commute/internal/bench"
)

// measuredCell is the last cell of a Table 5 row: the cost of the
// construct measured on the host that ran the tables.
var measuredCell = regexp.MustCompile(`(?m)^((?:Loop overhead \(32 procs\)|Chunk overhead|Iteration overhead|Lock overhead)\s+\S+\s+\S+\s+)\S+ *$`)

// maskMeasured masks Table 5's "Go runtime (measured)" column and
// nothing else: every other cell of the tables is a function of the
// simulator, the analysis and the workload sizes.
func maskMeasured(t *testing.T, out string) string {
	t.Helper()
	start := strings.Index(out, "## Table 5:")
	if start < 0 {
		t.Fatal("no Table 5 in the output")
	}
	end := start + 1 + strings.Index(out[start+1:], "\n## ")
	if end <= start {
		t.Fatal("Table 5 is the last section of the output")
	}
	table := out[start:end]
	if n := len(measuredCell.FindAllString(table, -1)); n != 4 {
		t.Fatalf("Table 5 has %d measured rows, want 4:\n%s", n, table)
	}
	return out[:start] + measuredCell.ReplaceAllString(table, "${1}<measured>") + out[end:]
}

// TestPaperTablesGolden: commutebench's default output, every
// experiment at the default sizes, is byte-identical to
// results_default.txt outside the host-measured cells.
func TestPaperTablesGolden(t *testing.T) {
	want, err := os.ReadFile("../../results_default.txt")
	if err != nil {
		t.Fatal(err)
	}
	out, err := bench.NewRunner(bench.DefaultConfig()).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	got, exp := maskMeasured(t, out+"\n"), maskMeasured(t, string(want))
	if got == exp {
		return
	}
	gl, el := strings.Split(got, "\n"), strings.Split(exp, "\n")
	for i := range max(len(gl), len(el)) {
		var g, e string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(el) {
			e = el[i]
		}
		if g != e {
			t.Errorf("results_default.txt:%d\n got: %q\nwant: %q", i+1, g, e)
		}
	}
}
