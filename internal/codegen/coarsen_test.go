package codegen

import (
	"testing"

	"commute/internal/core"
)

// TestCoarsenRule is the rule coarsen applies, one program per condition:
// node::visit invokes node::op2 on its receiver, which goes on through
// op1. Where everything the chain reaches stays on the receiver — through
// this, implicitly, or into a nested object op1 hoists — visit's mutex
// version answers serial at its site and takes the lock itself; its
// parallel version still spawns. A chain that reaches a peer, or a site
// that runs on a replica, refuses it with the reason commutec prints; a
// speculative extent and an operation with no extent site are never
// candidates. The paper's plan (no Options.Contention) coarsens nothing.
func TestCoarsenRule(t *testing.T) {
	rows := []struct {
		name, op1, op2 string
		coarse         bool
		reason         string // why visit is not coarse
	}{
		{"this", "this->op0(v);", "this->op1(v);\n  this->op0(v);", true, ""},
		{"implicit this", "op0(v);", "op1(v);", true, ""},
		{"nested object", "inner.bump(v);", "this->op1(v);\n  this->op0(v);", true, ""},
		{"peer", "peer->op0(v);", "this->op1(v);", false, "node::op1 invokes node::op0 outside the receiver"},
		{"replica", "A.add(v);", "this->op1(v);", false, "node::op1 runs acc::add on a replica"},
		{"speculative", "last = v;", "this->op1(v);\n  this->op0(v);", false, ""},
	}
	for _, row := range rows {
		prog := checked(t, `
class part {
public:
  int n;
  void bump(int v);
};

class acc {
public:
  int total;
  void add(int v);
};

class node {
public:
  int count;
  int last;
  part inner;
  node *peer;
  void op0(int v);
  void op1(int v);
  void op2(int v);
  void visit(int v);
};

class driver {
public:
  node *nodes[64];
  int n;
  void build(int k);
  void run();
};

acc A;
driver D;

void part::bump(int v) {
  n += v;
}

void acc::add(int v) {
  total += v;
}

void node::op0(int v) {
  count += v;
}

void node::op1(int v) {
  `+row.op1+`
}

void node::op2(int v) {
  `+row.op2+`
}

void node::visit(int v) {
  this->op2(v);
}

void driver::build(int k) {
  n = k;
  for (int i = 0; i < k; i++) {
    nodes[i] = new node;
  }
  for (int i = 0; i < k; i++) {
    nodes[i]->peer = nodes[(i + 1) % k];
  }
}

void driver::run() {
  for (int i = 0; i < n; i++) {
    nodes[i]->visit(i);
  }
}

void main() {
  D.build(64);
  D.run();
}
`)
		a := core.New(prog)
		visit := prog.MethodByFullName("node::visit")
		site := visit.CallSites[0]
		plan := BuildWithOptions(a, Options{ConditionalGuards: true, SpeculateRejected: true, Contention: true})
		mp := plan.Methods[visit]
		if mp.Speculative != (row.name == "speculative") {
			t.Fatalf("%s: node::visit speculative = %t", row.name, mp.Speculative)
		}
		if mp.Coarse != row.coarse || mp.NoCoarsen != row.reason {
			t.Errorf("%s: node::visit coarse = %t, reason %q; want %t, %q", row.name, mp.Coarse, mp.NoCoarsen, row.coarse, row.reason)
		}
		want := SiteCall{Run: VersionMutex, Release: true}
		if row.coarse {
			want = SiteCall{Run: VersionSerial}
			if !mp.NeedsLock || !plan.LockedClasses[prog.Classes["node"]] {
				t.Errorf("%s: a coarse node::visit takes no lock", row.name)
			}
		}
		if got := mp.Call(VersionMutex, site, plan.Methods[site.Callee]); got != want {
			t.Errorf("%s: node::op2 in visit's mutex version: %+v, want %+v", row.name, got, want)
		}
		if got := mp.Call(VersionParallel, site, plan.Methods[site.Callee]); !got.Spawn {
			t.Errorf("%s: node::op2 in visit's parallel version: %+v, want a spawn", row.name, got)
		}
		// node::op0 has no extent site: never a candidate.
		if op0 := plan.Methods[prog.MethodByFullName("node::op0")]; op0.Coarse || op0.NoCoarsen != "" {
			t.Errorf("%s: node::op0 is marked: coarse = %t, reason %q", row.name, op0.Coarse, op0.NoCoarsen)
		}
		for m, mp := range BuildWithOptions(a, Options{ConditionalGuards: true, SpeculateRejected: true}).Methods {
			if mp.Coarse || mp.NoCoarsen != "" {
				t.Errorf("%s: without Contention, %s is marked: coarse = %t, reason %q", row.name, m.FullName(), mp.Coarse, mp.NoCoarsen)
			}
		}
		if row.name == "speculative" {
			continue
		}
		// Every candidate the chain has agrees with visit: the walk from op2
		// sees what the walk from visit sees below it.
		for _, name := range []string{"node::op2", "node::op1"} {
			m := prog.MethodByFullName(name)
			if cp := plan.Methods[m]; spawnsOnThis(cp, m) && cp.Coarse != row.coarse {
				t.Errorf("%s: %s coarse = %t, want %t", row.name, name, cp.Coarse, row.coarse)
			}
		}
	}
}
