package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"commute/internal/analysis/effects"
	"commute/internal/analysis/symbolic"
	"commute/internal/apps/src"
	"commute/internal/core"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
)

// genMixedProgram generates a program whose item classes mix the
// behaviours that give one method pair different symbolic outcomes in
// different extents: accumulating operations (commute), overwriting
// ones (do not), operations guarded on D.mode (an extent constant below
// the run methods, written state above them), operations that call a
// helper reading D.mode (auxiliary only where D.mode is constant),
// while loops (not symbolically executable), call chains inside a class
// and links across classes (so extents overlap and share pairs). Every
// class also has look, which calls the read-only peek: that call site
// is auxiliary in quiet's extent, where nothing writes what peek reads,
// and an extent operation in the run methods', so the pair (look, look)
// is executed under both answers.
func genMixedProgram(r *rand.Rand, classes, methods int) string {
	const kinds = 5 // accumulate, overwrite, mode-guarded, helper, while
	depth := r.Intn(methods)
	link := r.Intn(2) == 0
	var b strings.Builder
	b.WriteString("const int NI = 4;\n\n")
	for c := classes - 1; c >= 0; c-- {
		fmt.Fprintf(&b, "class n%d {\npublic:\n  int v;\n  n%d *next;\n};\n\n", c, c)
		fmt.Fprintf(&b, "class c%d {\npublic:\n  int s0;\n  int s1;\n  int last;\n  n%d *head;\n", c, c)
		if link && c+1 < classes {
			fmt.Fprintf(&b, "  c%d *peer;\n", c+1)
		}
		b.WriteString("  int weight(int k);\n  void peek(int k);\n  void look(int k);\n  void bump(int k);\n")
		for m := 0; m < methods; m++ {
			fmt.Fprintf(&b, "  void op%d(int k);\n", m)
		}
		b.WriteString("};\n\n")
	}
	b.WriteString("class driver {\npublic:\n  int mode;\n")
	for c := 0; c < classes; c++ {
		fmt.Fprintf(&b, "  c%d *a%d[NI];\n", c, c)
	}
	b.WriteString("  void setup(int m);\n")
	for c := 0; c < classes; c++ {
		fmt.Fprintf(&b, "  void run%d();\n", c)
	}
	b.WriteString("  void quiet();\n  void all();\n};\n\ndriver D;\n\n")

	for c := 0; c < classes; c++ {
		fmt.Fprintf(&b, "int c%d::weight(int k) {\n  return k * D.mode + %d;\n}\n\n", c, 1+r.Intn(9))
		fmt.Fprintf(&b, "void c%d::peek(int k) {\n  int t;\n  t = s0 + k;\n}\n\n", c)
		fmt.Fprintf(&b, "void c%d::look(int k) {\n  s1 = s1 + k;\n  this->peek(k);\n}\n\n", c)
		fmt.Fprintf(&b, "void c%d::bump(int k) {\n  s0 = s0 + k;\n}\n\n", c)
		for m := 0; m < methods; m++ {
			fmt.Fprintf(&b, "void c%d::op%d(int k) {\n", c, m)
			f, k := fmt.Sprintf("s%d", r.Intn(2)), 1+r.Intn(9)
			switch r.Intn(kinds) {
			case 0:
				fmt.Fprintf(&b, "  %s = %s + k * %d;\n", f, f, k)
			case 1:
				fmt.Fprintf(&b, "  last = k;\n  %s = %s + k * %d;\n", f, f, k)
			case 2:
				fmt.Fprintf(&b, "  if (D.mode == 0) {\n    %s = %s + k * %d;\n  } else {\n    %s = k;\n  }\n", f, f, k, f)
			case 3:
				fmt.Fprintf(&b, "  int w;\n  w = this->weight(k);\n  %s = %s + w;\n", f, f)
			case 4:
				fmt.Fprintf(&b, "  n%d *p;\n  p = head;\n  while (p != NULL) {\n    %s = %s + p->v * %d;\n    p = p->next;\n  }\n", c, f, f, k)
			}
			if m < depth && m+1 < methods {
				fmt.Fprintf(&b, "  this->op%d(k + %d);\n", m+1, k)
			} else if m == depth && link && c+1 < classes {
				fmt.Fprintf(&b, "  peer->op0(k + %d);\n", k)
			}
			b.WriteString("}\n\n")
		}
	}

	b.WriteString("void driver::setup(int m) {\n  int i;\n  mode = m;\n")
	for c := classes - 1; c >= 0; c-- {
		fmt.Fprintf(&b, "  for (i = 0; i < NI; i += 1) {\n    a%d[i] = new c%d;\n    a%d[i]->head = new n%d;\n    a%d[i]->head->v = i;\n", c, c, c, c, c)
		if link && c+1 < classes {
			fmt.Fprintf(&b, "    a%d[i]->peer = a%d[i];\n", c, c+1)
		}
		b.WriteString("  }\n")
	}
	b.WriteString("}\n\n")
	for c := 0; c < classes; c++ {
		fmt.Fprintf(&b, "void driver::run%d() {\n  int i;\n  for (i = 0; i < NI; i += 1) {\n    a%d[i]->op0(i + 1);\n    a%d[i]->look(i);\n    a%d[i]->bump(i);\n", c, c, c, c)
		for m := depth + 1; m < methods; m++ {
			fmt.Fprintf(&b, "    a%d[i]->op%d(i + %d);\n", c, m, m)
		}
		b.WriteString("  }\n}\n\n")
	}
	b.WriteString("void driver::quiet() {\n  int i;\n  for (i = 0; i < NI; i += 1) {\n")
	for c := 0; c < classes; c++ {
		fmt.Fprintf(&b, "    a%d[i]->look(i + %d);\n", c, c)
	}
	b.WriteString("  }\n}\n\n")
	// all's extent spans every class; mode stays constant in it, unlike
	// in main's, where setup writes it.
	b.WriteString("void driver::all() {\n")
	for c := 0; c < classes; c++ {
		fmt.Fprintf(&b, "  this->run%d();\n", c)
	}
	b.WriteString("}\n\nvoid main() {\n  D.setup(0);\n  D.quiet();\n  D.all();\n")
	for c := 0; c < classes; c++ {
		fmt.Fprintf(&b, "  D.run%d();\n", c)
	}
	b.WriteString("}\n")
	return b.String()
}

func mustCheck(t *testing.T, name, source string) *types.Program {
	t.Helper()
	file, err := parser.Parse(name, source)
	if err != nil {
		t.Fatalf("%s: parse: %v\n%s", name, err, source)
	}
	prog, err := types.Check(file)
	if err != nil {
		t.Fatalf("%s: check: %v\n%s", name, err, source)
	}
	return prog
}

// memoPrograms is the corpus of the memo differential: the shipped
// applications and two families of generated programs.
func memoPrograms(t *testing.T) map[string]*types.Program {
	progs := map[string]*types.Program{
		"graph":         mustCheck(t, "graph", src.Graph),
		"barneshut":     mustCheck(t, "barneshut", src.BarnesHut),
		"water":         mustCheck(t, "water", src.Water),
		"condhash":      mustCheck(t, "condhash", src.CondHashBase+src.CondHashMain(1, 2)),
		"spec-disjoint": mustCheck(t, "spec-disjoint", src.SpecDisjoint),
		"spec-conflict": mustCheck(t, "spec-conflict", src.SpecConflict),
	}
	r := rand.New(rand.NewSource(20261001))
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("mixed-%d", i)
		progs[name] = mustCheck(t, name, genMixedProgram(r, 2+r.Intn(4), 2+r.Intn(3)))
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("counters-%d", i)
		progs[name] = mustCheck(t, name, genAnalysisProgram(r, 2+r.Intn(5), 4+r.Intn(12)))
	}
	return progs
}

// TestMemoMatchesFreshExecution: the analysis memo only saves work.
// Every pair verdict equals one computed by fresh executions under
// that extent's own environment, and every report equals the one an
// analysis produces that analyzed nothing else (so no entry in it was
// recorded under another extent's environment) — at every worker
// count and with either extension disabled.
func TestMemoMatchesFreshExecution(t *testing.T) {
	type option struct {
		name string
		set  func(*core.Analysis)
	}
	options := []option{
		{"default", func(*core.Analysis) {}},
		{"no-aux", func(a *core.Analysis) { a.DisableAuxiliary = true }},
		{"no-ec", func(a *core.Analysis) { a.DisableExtentConstants = true }},
	}
	reused, split := false, false
	for name, prog := range memoPrograms(t) {
		for _, opt := range options {
			eff := effects.NewAnalyzer(prog)
			var oracle []*core.MethodReport
			for _, workers := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s/%s/workers=%d", name, opt.name, workers)
				a := core.New(prog)
				a.Workers = workers
				opt.set(a)
				read, _ := a.MemoCounts()
				reports := a.AnalyzeAll()

				if oracle == nil {
					symbolicPairs := 0
					type pair struct{ m1, m2 *types.Method }
					distinct := map[pair]bool{}
					for _, r := range reports {
						for _, pr := range r.Pairs {
							if !pr.Independent {
								distinct[pair{pr.M1, pr.M2}] = true
							}
						}
						solo := core.New(prog)
						solo.Eff = eff // the effects memos are not under test
						solo.Workers = 1
						opt.set(solo)
						oracle = append(oracle, solo.IsParallel(r.Method))
						symbolicPairs += r.SymbolicPairs
					}
					_, _, entries := read()
					reused = reused || entries < symbolicPairs
					split = split || entries > len(distinct)
				}
				requireSameReports(t, label, oracle, reports)

				for _, r := range reports {
					checkPairsAgainstFresh(t, label, prog, r, opt.name == "no-ec")
				}
			}
		}
	}
	if !reused {
		t.Error("no verdict was ever reused: the differential is vacuous")
	}
	if !split {
		t.Error("no pair ever had two verdicts: no entry was ever refused for its answers")
	}
}

// checkPairsAgainstFresh recomputes each symbolically tested pair of r
// under a new environment of its own — nothing memoized before it.
func checkPairsAgainstFresh(t *testing.T, label string, prog *types.Program, r *core.MethodReport, noEC bool) {
	t.Helper()
	if r.Ext == nil {
		return
	}
	ec := r.EC
	if noEC {
		ec = effects.NewSet()
	}
	aux := make(map[int]bool, len(r.Ext.Aux))
	for _, c := range r.Ext.Aux {
		aux[c.ID] = true
	}
	for _, pr := range r.Pairs {
		if pr.Independent {
			continue
		}
		fresh := core.CommuteSymbolic(pr.M1, pr.M2, symbolic.NewEnv(prog, ec, aux))
		if !reflect.DeepEqual(pr, fresh) {
			t.Fatalf("%s: extent %s, pair (%s, %s): memoized verdict differs from a fresh execution\nmemo:  %+v\nfresh: %+v",
				label, r.Method.FullName(), pr.M1.FullName(), pr.M2.FullName(), pr, fresh)
		}
	}
}

// TestBodyExecutionCount pins what the memo buys on the shipped
// applications: one first run per (method, tag) and distinct set of
// answers, and per distinct pair verdict two more executions — the
// second body of either order — where the driver without it ran six
// per symbolically tested pair. A verdict refused because a first run
// was unanalyzable executes nothing further.
func TestBodyExecutionCount(t *testing.T) {
	for name, source := range map[string]string{
		"graph": src.Graph, "barneshut": src.BarnesHut, "water": src.Water,
	} {
		a := core.New(mustCheck(t, name, source))
		a.Workers = 1
		read, _ := a.MemoCounts()
		symbolicPairs := 0
		type pair struct{ m1, m2 *types.Method }
		unanalyzable := map[pair]bool{}
		for _, r := range a.AnalyzeAll() {
			symbolicPairs += r.SymbolicPairs
			for _, pr := range r.Pairs {
				if strings.HasPrefix(pr.Reason, "unanalyzable: ") {
					unanalyzable[pair{pr.M1, pr.M2}] = true
				}
			}
		}
		executions, firstRuns, verdicts := read()
		if want := firstRuns + 2*(verdicts-len(unanalyzable)); executions != want {
			t.Errorf("%s: %d body executions, want %d first runs + 2 × (%d verdicts − %d unanalyzable) = %d",
				name, executions, firstRuns, verdicts, len(unanalyzable), want)
		}
		if executions >= 6*symbolicPairs {
			t.Errorf("%s: %d body executions for %d symbolic pairs: no fewer than six per pair", name, executions, symbolicPairs)
		}
		if _, ok := a.MemoCounts(); ok {
			t.Errorf("%s: the memo outlived the last report", name)
		}
	}
}
