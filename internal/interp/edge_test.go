package interp_test

import (
	"bytes"
	"strings"
	"testing"

	"commute/internal/interp"
)

func run(t *testing.T, source string) (*interp.Interp, string) {
	t.Helper()
	prog := compile(t, source)
	var out bytes.Buffer
	ip := interp.New(interp.Compile(prog), &out)
	if err := ip.Run(ip.NewCtx()); err != nil {
		t.Fatalf("run: %v", err)
	}
	return ip, out.String()
}

func TestPrintFormats(t *testing.T) {
	_, out := run(t, `
class m { public: int x; void go(); };
m M;
void m::go() {
  print("int:", 42, "float:", 2.5, "bool:", TRUE, "null:", NULL, "neg:", -7);
}
void main() { M.go(); }
`)
	want := "int: 42 float: 2.5 bool: TRUE null: NULL neg: -7\n"
	if out != want {
		t.Errorf("print output %q, want %q", out, want)
	}
}

func TestShortCircuitEvaluation(t *testing.T) {
	// p is NULL; && must not dereference it when the left side is false.
	ip, _ := run(t, `
class node { public: int v; node *next; };
class m {
public:
  node *p;
  int r;
  void go();
};
m M;
void m::go() {
  if (p != NULL && p->v > 0)
    r = 1;
  else
    r = 2;
  if (p == NULL || p->v > 0)
    r = r + 10;
}
void main() { M.go(); }
`)
	v, _ := ip.Globals["M"], 0
	_ = v
	got := ip.Globals["M"].Slots[1] // r is the second field
	if got.Any() != int64(12) {
		t.Errorf("r = %v, want 12", got)
	}
}

func TestIntegerSemantics(t *testing.T) {
	ip, _ := run(t, `
class m {
public:
  int q;
  int r;
  int neg;
  int trunc;
  void go();
};
m M;
void m::go() {
  q = 17 / 5;
  r = 17 % 5;
  neg = -17 / 5;
  trunc = 9;
  trunc = trunc / 2 * 2;
}
void main() { M.go(); }
`)
	M := ip.Globals["M"]
	wants := []int64{3, 2, -3, 8}
	for i, w := range wants {
		if M.Slots[i].Any() != w {
			t.Errorf("slot %d = %v, want %d", i, M.Slots[i], w)
		}
	}
}

func TestIntDoubleCoercion(t *testing.T) {
	ip, _ := run(t, `
class m {
public:
  double d;
  int i;
  void go();
};
m M;
void m::go() {
  d = 3;          // int stored into double
  i = 7.9;        // double truncated into int
  d = d + 1;      // mixed arithmetic
  i = i + 2;
}
void main() { M.go(); }
`)
	M := ip.Globals["M"]
	if M.Slots[0].Any() != 4.0 {
		t.Errorf("d = %v, want 4.0", M.Slots[0])
	}
	if M.Slots[1].Any() != int64(9) {
		t.Errorf("i = %v, want 9", M.Slots[1])
	}
}

func TestNestedObjectIdentity(t *testing.T) {
	// Nested objects are allocated with their parent, are distinct, and
	// persist across operations.
	ip, _ := run(t, `
class inner {
public:
  int v;
  void set(int k) { v = k; }
  int get() { return v; }
};
class outer {
public:
  inner a;
  inner b;
  int sum;
  void go();
};
outer O;
void outer::go() {
  a.set(1);
  b.set(2);
  a.set(a.get() + 10);
  sum = a.get() * 100 + b.get();
}
void main() { O.go(); }
`)
	O := ip.Globals["O"]
	// Fields: a (slot 0), b (slot 1), sum (slot 2).
	if got := O.Slots[2]; got.Any() != int64(1102) {
		t.Errorf("sum = %v, want 1102 (a=11, b=2)", got)
	}
	a := O.Slots[0].Object()
	b := O.Slots[1].Object()
	if a == b {
		t.Error("nested objects a and b must be distinct")
	}
}

func TestWhileAndEarlyReturn(t *testing.T) {
	ip, _ := run(t, `
class m {
public:
  int steps;
  int found;
  int probe(int limit);
  void go();
};
m M;
int m::probe(int limit) {
  int i;
  i = 0;
  while (TRUE) {
    i = i + 1;
    steps = steps + 1;
    if (i >= limit)
      return i;
  }
  return -1;
}
void m::go() { found = this->probe(5); }
void main() { M.go(); }
`)
	M := ip.Globals["M"]
	if M.Slots[0].Any() != int64(5) || M.Slots[1].Any() != int64(5) {
		t.Errorf("steps=%v found=%v, want 5/5", M.Slots[0], M.Slots[1])
	}
}

func TestRecursionDepth(t *testing.T) {
	ip, _ := run(t, `
class m {
public:
  int total;
  void down(int n);
};
m M;
void m::down(int n) {
  total = total + n;
  if (n > 0)
    this->down(n - 1);
}
void main() { M.down(100); }
`)
	if got := ip.Globals["M"].Slots[0]; got.Any() != int64(5050) {
		t.Errorf("total = %v, want 5050", got)
	}
}

func TestFailedCastYieldsNull(t *testing.T) {
	_, out := run(t, `
class node { public: int k; };
class cell : public node { public: int c; };
class leaf : public node { public: int l; };
class m {
public:
  int dummy;
  void check(node *n);
};
m M;
void m::check(node *n) {
  leaf *lf;
  lf = dynamic_cast<leaf*>(n);
  if (lf == NULL)
    print("not a leaf");
  else
    print("a leaf");
}
void main() {
  M.check(new cell);
  M.check(new leaf);
}
`)
	if !strings.Contains(out, "not a leaf") || !strings.Contains(out, "a leaf") {
		t.Errorf("cast output: %q", out)
	}
}
