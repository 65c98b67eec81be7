package codegen_test

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/interp"
)

// walkerCost is what the tree walker charges a full serial run.
func walkerCost(t *testing.T, source string) (int64, *codegen.Plan) {
	t.Helper()
	prog, plan := buildPlan(t, source)
	ip := interp.NewEngine(prog, io.Discard, interp.EngineWalk)
	ctx := ip.NewCtx()
	if err := ip.Run(ctx); err != nil {
		t.Fatalf("serial walk: %v", err)
	}
	return ctx.Cost, plan
}

// stepsSrc has no branch: counted loops with strides, offsets, an empty
// range, literal and named bounds, a declared loop variable, nested
// loops, builtins, allocation, compound and indexed assignment.
const stepsSrc = `
const int N = 10;

class acc {
public:
  double v[N];
  int n;
  acc *other;
  void fill(int k);
  double norm();
};

acc A;

void acc::fill(int k) {
  int i;
  for (i = 1; i < N; i += 3) {
    v[i] = v[i - 1] + sqrt(k * 2.0);
    n += 1;
  }
  for (i = 4; i < 4; i += 1) {
    n = n + 100;
  }
  for (i = 0; i < 13; i += 2) {
    other->n = other->n + i;
  }
}

double acc::norm() {
  double s;
  s = 0;
  for (int j = 0; j < N; j += 1) {
    for (int k = 0; k < 3; k += 1) {
      s = s + v[j] * pow(v[j], 2.0);
    }
  }
  return s;
}

void main() {
  int r;
  A.other = new acc;
  for (r = 0; r < 5; r += 1) {
    A.fill(r);
  }
  print(A.norm(), A.n, A.other->n);
}
`

// genWorkProgram draws one program on the shapes the corpus is made of:
// per-object operations that accumulate, overwrite, branch on a mode
// field, or chain through value-returning helpers, driven by constant
// loops. Only the mode-guarded shape branches.
func genWorkProgram(r *rand.Rand, shape string) string {
	ni, rounds, depth := 2+r.Intn(7), 1+r.Intn(5), 1+r.Intn(3)
	k := func() int { return 1 + r.Intn(9) }
	var b strings.Builder
	fmt.Fprintf(&b, "const int NI = %d;\n\nclass cell {\npublic:\n  int s0;\n  int s1;\n  int cnt;\n", ni)
	for d := 0; d <= depth; d++ {
		fmt.Fprintf(&b, "  void op%d(int v);\n", d)
	}
	b.WriteString("  int helper(int v);\n};\n\nclass driver {\npublic:\n  int mode;\n  cell *a[NI];\n  int check;\n  void setup(int m);\n  void run();\n  void report();\n};\n\ndriver D;\n\n")
	fmt.Fprintf(&b, "int cell::helper(int v) {\n  return v * %d + %d;\n}\n\n", k(), k())
	for d := 0; d <= depth; d++ {
		fmt.Fprintf(&b, "void cell::op%d(int v) {\n", d)
		switch shape {
		case "accumulate":
			fmt.Fprintf(&b, "  s0 = s0 + v * %d;\n  cnt = cnt + 1;\n", k())
		case "overwrite":
			fmt.Fprintf(&b, "  s1 = v + %d;\n  cnt += 1;\n", k())
		case "mode-guarded":
			fmt.Fprintf(&b, "  if (D.mode == 0 && v > -1) {\n    s0 = s0 + v;\n  } else {\n    s0 = v;\n    s1 = s1 + %d;\n  }\n", k())
		case "helper-chain":
			fmt.Fprintf(&b, "  s0 = s0 + this->helper(v + %d);\n", k())
		}
		if d < depth {
			fmt.Fprintf(&b, "  this->op%d(v + %d);\n", d+1, k())
		}
		b.WriteString("}\n\n")
	}
	b.WriteString("void driver::setup(int m) {\n  int i;\n  mode = m;\n  for (i = 0; i < NI; i += 1) {\n    a[i] = new cell;\n  }\n}\n\n")
	fmt.Fprintf(&b, "void driver::run() {\n  int i;\n  for (i = 0; i < NI; i += 1) {\n    a[i]->op0(i * %d + 1);\n  }\n}\n\n", k())
	b.WriteString("void driver::report() {\n  int i;\n  check = 0;\n  for (i = 0; i < NI; i += 1) {\n    check = check * 31 + a[i]->s0 + a[i]->s1 * 7 + a[i]->cnt;\n  }\n  print(check);\n}\n\n")
	fmt.Fprintf(&b, "void main() {\n  int r;\n  D.setup(%d);\n  for (r = 0; r < %d; r += 1) {\n    D.run();\n  }\n  D.report();\n}\n", r.Intn(2), rounds)
	return b.String()
}

// TestWorkBoundsTheWalker: where main is bounded, its estimate is an
// upper bound on what the tree walker charges a full run, and a tight
// one: equal for a program that never branches (the bound guesses only
// at if, && and ||), within 1.5× for one that does.
func TestWorkBoundsTheWalker(t *testing.T) {
	type prog struct {
		name, source string
	}
	specMain := func(body, global, region, report string) string {
		return body[:strings.Index(body, "void main()")] + fmt.Sprintf(
			"void main() {\n  int r;\n  %[1]s.init();\n  for (r = 0; r < 16; r += 1) {\n    %[1]s.%[2]s();\n  }\n  %[1]s.%[3]s();\n}\n",
			global, region, report)
	}
	progs := []prog{
		{"condhash0", src.CondHashBase + src.CondHashMain(0, 64)},
		{"condhash3", src.CondHashBase + src.CondHashMain(3, 64)},
		{"specdisjoint", src.SpecDisjoint},
		{"specconflict", src.SpecConflict},
		{"specdisjoint-16", specMain(src.SpecDisjoint, "T", "fill", "report")},
		{"specconflict-16", specMain(src.SpecConflict, "D", "run", "show")},
		{"rules", rulesSrc},
		{"steps", stepsSrc},
	}
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 24; i++ {
		shape := []string{"accumulate", "overwrite", "mode-guarded", "helper-chain"}[i%4]
		progs = append(progs, prog{fmt.Sprintf("%s-%d", shape, i), genWorkProgram(r, shape)})
	}
	branching := 0
	for _, p := range progs {
		cost, plan := walkerCost(t, p.source)
		work := plan.Methods[plan.Prog.Main].Work
		branches := strings.Contains(p.source, "if (") || strings.Contains(p.source, "&&") || strings.Contains(p.source, "||")
		switch {
		case work == codegen.WorkUnbounded:
			t.Errorf("%s: main is unbounded", p.name)
		case work < cost:
			t.Errorf("%s: Work(main) = %d is under the %d units the walker charged", p.name, work, cost)
		case !branches && work != cost:
			t.Errorf("%s: Work(main) = %d, the walker charged %d, and the program never branches", p.name, work, cost)
		case 2*work > 3*cost:
			t.Errorf("%s: Work(main) = %d is over 1.5× the %d units the walker charged", p.name, work, cost)
		}
		if branches && work > cost {
			branching++
		}
	}
	if branching == 0 {
		t.Error("no program's bound is above its cost: the branch rule was never exercised")
	}
}

// unboundedSrc: every method here but bounded and main is unbounded,
// each for the reason its name gives.
const unboundedSrc = `
const int N = 4;

class box {
public:
  int n;
  int sum;
  void whileBody();
  void fieldBound();
  void paramBound(int k);
  void localBound();
  void loopVarAssigned();
  void noCondition();
  void otherShape();
  void computedBound();
  void recurses(int k);
  void ping(int k);
  void pong(int k);
  void callsUnbounded();
  void overflows();
  void bounded();
};

box B;

void box::whileBody() {
  int i;
  i = 0;
  while (i < N) {
    i = i + 1;
  }
}

void box::fieldBound() {
  int i;
  for (i = 0; i < n; i += 1) {
    sum = sum + i;
  }
}

void box::paramBound(int k) {
  int i;
  for (i = 0; i < k; i += 1) {
    sum = sum + i;
  }
}

void box::localBound() {
  int i;
  int m;
  m = N;
  for (i = 0; i < m; i += 1) {
    m = m - 1;
  }
}

void box::loopVarAssigned() {
  int i;
  for (i = 0; i < N; i += 1) {
    if (sum > 100) {
      i = i - 1;
    }
    sum = sum + 60;
  }
}

void box::noCondition() {
  int i;
  for (i = 0; ; i += 1) {
    if (i > N) {
      return;
    }
  }
}

void box::otherShape() {
  int i;
  for (i = N; i > 0; i -= 1) {
    sum = sum + i;
  }
}

void box::computedBound() {
  int i;
  for (i = 0; i < N * 2; i += 1) {
    sum = sum + i;
  }
}

void box::recurses(int k) {
  if (k > 0) {
    this->recurses(k - 1);
  }
}

void box::ping(int k) {
  if (k > 0) {
    this->pong(k - 1);
  }
}

void box::pong(int k) {
  if (k > 0) {
    this->ping(k - 1);
  }
}

void box::callsUnbounded() {
  this->bounded();
  this->ping(2);
}

void box::overflows() {
  int a;
  int b;
  int c;
  for (a = 0; a < 2000000000; a += 1) {
    for (b = 0; b < 2000000000; b += 1) {
      for (c = 0; c < 2000000000; c += 1) {
        sum = sum + 1;
      }
    }
  }
}

void box::bounded() {
  int i;
  for (i = 0; i < N; i += 1) {
    sum = sum + i;
  }
}

void main() {
  B.bounded();
}
`

// TestWorkUnbounded: no constant bounds a while, a for whose trip count
// is not a compile-time constant or whose variable its body assigns, or
// a method on or reaching a call cycle; a product of constant trip
// counts past int64 saturates. Every region root of the applications is
// unbounded for one of those reasons.
func TestWorkUnbounded(t *testing.T) {
	prog, plan := buildPlan(t, unboundedSrc)
	for _, m := range prog.Methods {
		work := plan.Methods[m].Work
		bounded := m.Name == "bounded" || m.Name == "main"
		if work <= 0 {
			t.Errorf("%s: work %d", m.FullName(), work)
		}
		if (work != codegen.WorkUnbounded) != bounded {
			t.Errorf("%s: work %d, want bounded = %t", m.FullName(), work, bounded)
		}
	}

	for _, app := range []struct {
		name, source string
		roots        int
		bounded      []string // roots only ever invoked inside another region
	}{
		{"barneshut", src.BarnesHut, 7, nil},
		{"water", src.Water, 8, []string{"h2o::momenta"}},
		{"graph", src.Graph, 3, nil},
	} {
		_, plan := buildPlan(t, app.source)
		roots := 0
		for m, mp := range plan.Methods {
			if !mp.Parallel || !plan.GeneratesConcurrency(m) {
				continue
			}
			roots++
			if want := strings.Contains(strings.Join(app.bounded, " "), m.FullName()); (mp.Work != codegen.WorkUnbounded) != want {
				t.Errorf("%s: region root %s has work %d, want bounded = %t", app.name, m.FullName(), mp.Work, want)
			}
		}
		if roots != app.roots {
			t.Errorf("%s: %d region roots, want %d", app.name, roots, app.roots)
		}
	}
}
