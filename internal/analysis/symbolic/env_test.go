package symbolic

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"strings"
	"testing"

	"commute/internal/analysis/effects"
	"commute/internal/analysis/extent"
	"commute/internal/apps/src"
	mcparser "commute/internal/frontend/parser"
	"commute/internal/frontend/types"
)

// TestOnlyAnswerReadsTheEnvironment: the memo is sound because every
// dependence of an execution on its environment is a recorded
// question. Env.answer is where questions are answered; nothing else
// in the package may look at EC or Aux (Fingerprint, which no execution
// consults, aside).
func TestOnlyAnswerReadsTheEnvironment(t *testing.T) {
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", notTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	for _, file := range pkgs["symbolic"].Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "EC" && sel.Sel.Name != "Aux") {
					return true
				}
				reads++
				if fn.Name.Name != "answer" && fn.Name.Name != "fingerprint" {
					t.Errorf("%s reads .%s: an execution may consult its environment only through Env.covers and Env.isAux", fn.Name.Name, sel.Sel.Name)
				}
				return true
			})
		}
	}
	if reads == 0 {
		t.Error("found no read of EC or Aux at all: the scan is broken")
	}
}

func checked(t *testing.T, source string) *types.Program {
	t.Helper()
	f, err := mcparser.Parse("app.mc", source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := types.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return prog
}

// TestExecutionDependsOnAnswersOnly runs every ordered pair of every
// extent of the shipped applications twice: as two bodies on one
// executor under a recording view of the extent's environment, and
// through ExecutePair under the smallest environment that gives the
// recorded answers — only the storage answered "constant", only the
// sites answered "auxiliary". The two must agree exactly: nothing but
// the recorded answers reached the execution, and cloning a memoized
// first run is the same as running it.
func TestExecutionDependsOnAnswersOnly(t *testing.T) {
	pairs, asked := 0, 0
	for name, source := range map[string]string{"graph": src.Graph, "barneshut": src.BarnesHut, "water": src.Water} {
		prog := checked(t, source)
		eff := effects.NewAnalyzer(prog)
		for _, root := range prog.Methods {
			if root.Def == nil {
				continue
			}
			ec := extent.Constants(eff, root)
			ext := extent.Compute(eff, root, ec)
			aux := map[int]bool{}
			for _, c := range ext.Aux {
				aux[c.ID] = true
			}
			for _, mA := range ext.Methods {
				for _, mB := range ext.Methods {
					rec := NewEnv(prog, ec, aux).recording()
					ex := &executor{env: rec, ivars: map[string]Expr{}}
					var invoked Multiset
					err := ex.runMethod(mA, "1", &invoked)
					if err == nil {
						err = ex.runMethod(mB, "2", &invoked)
					}

					least, leastAux := effects.NewSet(), map[int]bool{}
					for _, q := range *rec.asked {
						switch {
						case q.yes && q.site >= 0:
							leastAux[q.site] = true
						case q.yes:
							least.Add(q.desc)
						}
					}
					env := NewEnv(prog, least, leastAux)
					if !env.answers(*rec.asked) {
						t.Fatalf("%s: %s;%s under %s: the least environment does not give the recorded answers",
							name, mA.FullName(), mB.FullName(), root.FullName())
					}
					got, gotErr := ExecutePair(mA, mB, "1", "2", env)
					pairs++
					asked += len(*rec.asked)
					if (err == nil) != (gotErr == nil) || (err != nil && err.Error() != gotErr.Error()) {
						t.Fatalf("%s: %s;%s under %s: error %v, under the least environment %v",
							name, mA.FullName(), mB.FullName(), root.FullName(), err, gotErr)
					}
					if err != nil {
						continue
					}
					if want := (&Result{IVars: ex.ivars, Invoked: invoked}); !reflect.DeepEqual(want, got) {
						t.Fatalf("%s: %s;%s under %s: result differs under the least environment\nfull:  %v %v\nleast: %v %v",
							name, mA.FullName(), mB.FullName(), root.FullName(), want.IVars, want.Invoked, got.IVars, got.Invoked)
					}
				}
			}
		}
	}
	if pairs == 0 || asked == 0 {
		t.Fatalf("%d pairs asked %d questions: nothing was compared", pairs, asked)
	}
}

// TestMemoRefusesAChangedAnswer: an entry is reused under environments
// that differ from the recording one in anything but its answers, and
// under none that differs in one of them.
func TestMemoRefusesAChangedAnswer(t *testing.T) {
	prog := checked(t, src.Graph)
	graph := prog.Classes["graph"]
	if graph == nil {
		t.Fatal("no class graph")
	}
	sum, mark := effects.FieldDesc(graph, nil, "sum"), effects.FieldDesc(graph, nil, "mark")
	cache := NewCache(prog)

	var memo Memo[string, int]
	computed := 0
	get := func(env *Env) int {
		return memo.Get("k", env, func(rec *Env) int {
			computed++
			n := 0
			if rec.covers(sum) {
				n += 1
			}
			if rec.isAux(5) {
				n += 2
			}
			return n
		})
	}

	base := cache.Env(effects.NewSet(sum), map[int]bool{})
	if got := get(base); got != 1 || computed != 1 {
		t.Fatalf("first lookup = %d after %d computations, want 1 after 1", got, computed)
	}
	// Same answers, different environment: mark and site 7 were never asked about.
	if got := get(cache.Env(effects.NewSet(sum, mark), map[int]bool{7: true})); got != 1 || computed != 1 {
		t.Fatalf("lookup under an environment with the same answers = %d after %d computations, want the entry (1 after 1)", got, computed)
	}
	// One recorded answer changed.
	if got := get(cache.Env(effects.NewSet(mark), map[int]bool{})); got != 0 || computed != 2 {
		t.Fatalf("lookup with covers(sum) changed = %d after %d computations, want 0 after 2", got, computed)
	}
	if got := get(cache.Env(effects.NewSet(sum), map[int]bool{5: true})); got != 3 || computed != 3 {
		t.Fatalf("lookup with isAux(5) changed = %d after %d computations, want 3 after 3", got, computed)
	}
	if memo.Len() != 3 {
		t.Fatalf("%d entries, want 3", memo.Len())
	}

	// A lookup made while recording passes the entry's questions on.
	rec := base.recording()
	get(rec)
	var got []string
	for _, q := range *rec.asked {
		got = append(got, q.key)
	}
	if len(got) != 2 || !strings.Contains(strings.Join(got, "|"), sum.Key()) {
		t.Fatalf("a nested lookup recorded %q, want the entry's two questions", got)
	}
}
