package codegen_test

import (
	"strings"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/core"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
)

func emit(t *testing.T, source string) string {
	t.Helper()
	f, err := parser.Parse("app.mc", source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := types.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	plan := codegen.Build(core.New(prog))
	return plan.EmitParallelSource(f)
}

// TestEmitFigure2 checks that the generated parallel graph traversal
// has exactly the structure of the paper's Figure 2: the lock field,
// the serial version invoking the parallel version plus wait, the
// object section under the lock with releases on both paths before the
// spawned recursive visits.
func TestEmitFigure2(t *testing.T) {
	out := emit(t, src.Graph)
	for _, want := range []string{
		"lock mutex;",
		"void graph::visit(int p) {\n  this->visit__parallel(p);\n  wait();\n}",
		"void graph::visit__parallel(int p) {\n  mutex.acquire();\n  sum = sum + p;",
		"mark = TRUE;\n    mutex.release();",
		"spawn(left->visit__parallel(val));",
		"spawn(right->visit__parallel(val));",
		"} else {\n    mutex.release();\n  }",
		"left->visit__mutex(val);", // mutex version invokes mutex versions serially
	} {
		if !strings.Contains(out, want) {
			t.Errorf("emitted source missing %q\n----\n%s", want, out)
		}
	}
}

// TestEmitBarnesHut checks the loop-structured output: the force loop
// becomes a parallel_for over mutex versions, gravsub holds its hoisted
// lock through the nested vecAdd, and the serial tree construction is
// emitted unchanged.
func TestEmitBarnesHut(t *testing.T) {
	out := emit(t, src.BarnesHut)
	for _, want := range []string{
		"parallel_for (int i = 0; i < numbodies; i += 1)",
		"b->walksub__mutex(BH_root, size * size);",
		// gravsub: hoisting holds the lock across both sections; the
		// nested vecAdd runs as the original serial version.
		"void body::gravsub__parallel(node *n) {\n  mutex.acquire();",
		"acc.vecAdd(tmpv);\n  mutex.release();\n}",
		// walksub spawns its extent operations in the parallel version.
		"spawn(this->gravsub__parallel(n));",
		// Serial methods are unchanged.
		"void nbody::buildTree() {",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("emitted source missing %q", want)
		}
	}
	if strings.Contains(out, "buildTree__parallel") {
		t.Error("serial buildTree must not get generated versions")
	}
	// The vector class lost its lock to hoisting.
	if strings.Contains(out, "class vector {\npublic:\n  lock mutex;") {
		t.Error("vector must not keep a lock (hoisting)")
	}
}

// TestEmitReparses: the emitted program (modulo the runtime constructs
// spawn/wait/parallel_for/lock, which belong to the runtime library's
// dialect) is still syntactically well formed. We verify by stripping
// the runtime keywords back to plain calls and parsing.
func TestEmitReparses(t *testing.T) {
	out := emit(t, src.Water)
	neutral := strings.NewReplacer(
		"parallel_for (", "for (",
		"spawn(", "ignore_spawn(",
		"lock mutex;", "int mutex__lockword;",
		"mutex.acquire();", "ignore_lock();",
		"mutex.release();", "ignore_lock();",
		"wait();", "ignore_wait();",
	).Replace(out)
	f, err := parser.Parse("emitted.mc", neutral)
	if err != nil {
		t.Fatalf("emitted source does not reparse: %v", err)
	}
	// Structure sanity: the emitted program declares the generated
	// versions for every parallel method.
	var defs int
	for _, d := range f.Decls {
		if md, ok := d.(*ast.MethodDef); ok {
			if strings.HasSuffix(md.Name, "__parallel") || strings.HasSuffix(md.Name, "__mutex") {
				defs++
			}
		}
	}
	if defs < 10 {
		t.Errorf("expected generated method versions, found %d", defs)
	}
}

// TestEmitRenamesTheCallItself: the generated version's suffix goes on
// the spawned call's own method name, not on the like-named auxiliary
// call among its arguments (the last "add(" of the rendered text).
func TestEmitRenamesTheCallItself(t *testing.T) {
	out := emit(t, `
class scale {
public:
  int f;
  int add(int k);
};
class counter {
public:
  int n;
  void add(int k);
};
class driver {
public:
  counter *c;
  scale *s;
  int dummy;
  void run();
};
int scale::add(int k) { return k + f; }
void counter::add(int k) { n = n + k; }
void driver::run() {
  c->add(s->add(1));
  c->add(2);
}
`)
	if want := "spawn(c->add__parallel(s->add(1)));"; !strings.Contains(out, want) {
		t.Errorf("emitted source missing %q\n----\n%s", want, out)
	}
}
