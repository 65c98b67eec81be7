package core_test

import (
	"strings"
	"testing"

	"commute/internal/cond"
)

// condSource has an extent (box::work) with two independently failing
// pairs — (adda, adda) conditional on B.m1, (addb, addb) conditional
// on B.m2 — so the report-level condition must aggregate residuals
// from every failing pair, not just the first one encountered.
const condSource = `
class cell {
public:
  int a;
  int b;
  void adda(int v);
  void addb(int v);
};

class box {
public:
  int m1;
  int m2;
  cell *c;
  void setup();
  void work(int r);
};

// Global Variables
box B;

void cell::adda(int v) {
  if (B.m1 == 0) {
    a = a + v;
  } else {
    a = v;
  }
}

void cell::addb(int v) {
  if (B.m2 == 0) {
    b = b + v;
  } else {
    b = v;
  }
}

void box::setup() {
  m1 = 0;
  m2 = 0;
  c = new cell;
}

void box::work(int r) {
  c->adda(r);
  c->adda(r + 1);
  c->addb(r);
  c->addb(r + 2);
}

void main() {
  B.setup();
  B.work(1);
  B.work(2);
}
`

// TestConditionAggregatesAllFailingPairs: with two distinct residuals
// in one extent, the method-level predicate is their conjunction and
// the synthesized guard reads both mode fields. A first-failure-only
// aggregation would guard on one mode and unsoundly parallelize when
// the other mode disables commutativity.
func TestConditionAggregatesAllFailingPairs(t *testing.T) {
	_, a := analyze(t, condSource)
	r := a.IsParallel(a.Prog.MethodByFullName("box::work"))
	if r.Parallel {
		t.Fatal("box::work must not be unconditionally parallel")
	}
	if !r.ConditionalEligible {
		t.Fatalf("box::work should be conditionally eligible; reason: %s", r.Reason)
	}

	// Both failing pairs contribute a residual, and the residuals are
	// distinct predicates.
	residuals := map[string]bool{}
	for _, pr := range r.Pairs {
		if !pr.Commutes && pr.Pred != nil {
			residuals[pr.Pred.Key()] = true
		}
	}
	if len(residuals) < 2 {
		t.Fatalf("want >= 2 distinct failing-pair residuals, got %d: %v", len(residuals), residuals)
	}

	// The aggregate condition and the guard must mention both mode
	// fields — evidence no residual was dropped.
	for _, field := range []string{"ec:box.m1@global:B", "ec:box.m2@global:B"} {
		if !strings.Contains(r.Condition, field) {
			t.Errorf("aggregate condition %q does not mention %s", r.Condition, field)
		}
		if g := cond.Render(r.Guard); !strings.Contains(g, field) {
			t.Errorf("guard %q does not mention %s", g, field)
		}
	}

	// The guard reads exactly the two mode fields.
	refs := map[cond.FieldRef]bool{}
	_, err := cond.Check(r.Guard, func(ref cond.FieldRef) (cond.Kind, bool) {
		refs[ref] = true
		return cond.KInt, true
	})
	if err != nil || len(refs) != 2 ||
		!refs[cond.FieldRef{Global: "B", Class: "box", Field: "m1"}] ||
		!refs[cond.FieldRef{Global: "B", Class: "box", Field: "m2"}] {
		t.Errorf("guard refs = %+v (check: %v), want B.box.m1 and B.box.m2", refs, err)
	}
}
