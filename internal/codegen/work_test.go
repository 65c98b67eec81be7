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
	"commute/internal/oracle"
)

// walkerCost is what the tree walker charges a full serial run.
func walkerCost(t *testing.T, source string) (int64, *codegen.Plan) {
	t.Helper()
	prog, plan := buildPlan(t, source)
	ip := interp.NewEngine(interp.Compile(prog), io.Discard, interp.EngineWalk)
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

// TestWorkBoundsTheWalker: where main is bounded, its estimate is an
// upper bound on what the tree walker charges a full run, and a tight
// one: equal for a program that never branches (the bound guesses only
// at if, && and ||), within 1.5× for one that does.
func TestWorkBoundsTheWalker(t *testing.T) {
	type prog struct {
		name, source string
	}
	progs := []prog{
		{"condhash0", src.CondHashBase + src.CondHashMain(0, 64)},
		{"condhash3", src.CondHashBase + src.CondHashMain(3, 64)},
		{"specdisjoint", src.SpecDisjoint},
		{"specconflict", src.SpecConflict},
		{"specdisjoint-16", oracle.Repeat(src.SpecDisjoint, "T.init();", "T.fill();", 16, "T.report();")},
		{"specconflict-16", oracle.Repeat(src.SpecConflict, "D.init();", "D.run();", 16, "D.show();")},
		{"rules", rulesSrc},
		{"steps", stepsSrc},
	}
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 24; i++ {
		progs = append(progs, prog{fmt.Sprintf("work-%d", i), oracle.Work(r, oracle.Op(i%int(oracle.Ops)))})
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
