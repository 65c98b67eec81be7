package oracle

import (
	"fmt"
	"math/rand"
	"strings"
)

// The program generator: every family of random programs the tests draw.
// Counters is what the runtimes are checked on, Violating a guaranteed
// speculation conflict, Analysis, Mixed and Work what the analysis and
// the work bound are checked on; Draw picks among them all. The families
// share Op, the one rendering of how an operation updates its receiver.

// Op is the shape of one operation's update of a field of its receiver:
// the shapes the analysis tells apart.
type Op int

const (
	// Accumulate adds to the field: operations commute.
	Accumulate Op = iota
	// Overwrite also stores its argument in last: the pair test fails at
	// the symbolic stage, which leaves the extent to speculation.
	Overwrite
	// ModeGuarded accumulates while D.mode is 0 and overwrites otherwise:
	// the residual is a guard on D.mode, which holds in mode 0 only.
	ModeGuarded
	// Helper adds what weight, a value-returning helper reading D.mode,
	// answers: an auxiliary call wherever D.mode is extent-constant.
	Helper
	// Ops counts the shapes.
	Ops
)

// update renders an operation of shape o that adds c times the int k to
// the field f. The receiver's class has int fields f and last and the
// method weight (weightDef); the program has a global D with an int mode.
func (o Op) update(f, k string, c int) string {
	add := fmt.Sprintf("%s = %s + %s;\n", f, f, k)
	if c != 1 {
		add = fmt.Sprintf("%s = %s + %s * %d;\n", f, f, k, c)
	}
	switch o {
	case Overwrite:
		return "  last = " + k + ";\n  " + add
	case ModeGuarded:
		return fmt.Sprintf("  if (D.mode == 0) {\n    %s  } else {\n    %s = %s;\n  }\n", add, f, k)
	case Helper:
		return fmt.Sprintf("  %s = %s + this->weight(%s);\n", f, f, k)
	}
	return "  " + add
}

// weightDef is class cl's helper for Helper.
func weightDef(cl string, c int) string {
	return fmt.Sprintf("int %s::weight(int k) {\n  return k * D.mode + %d;\n}\n\n", cl, c)
}

// LoopShape is one body of driver::runAll's update loop, whose locals are
// int u (the loop variable), k, n and t. The invocations commute under
// every shape; Legal says whether the iterations may also run out of
// order on private copies of the frame, i.e. whether the plan runs the
// loop in parallel.
type LoopShape struct {
	Name, Pre, Bound, Body string
	Legal                  bool
}

// LoopShapes are the five loop bodies.
var LoopShapes = []LoopShape{
	{"plain", "", "NU", "this->apply(u);", true},
	{"private temp", "", "NU", "t = u; this->apply(t);", true},
	{"carried counter", "k = 0;", "NU", "this->apply(k); k = k + 1;", false},
	{"loop-variable write", "", "NU", "this->apply(u); u = u + 1;", false},
	{"bound write", "n = NU;", "n", "this->apply(u); n = n - 1;", false},
}

// Reach is how driver::apply gets an update to its counter.
type Reach int

const (
	// Direct: apply invokes counter::bump on the counter.
	Direct Reach = iota
	// Scan: bump first asks driver::scan for a number — an auxiliary call
	// of a read-only helper whose body is a planned-parallel loop of
	// probe::peek operations, which executes serially: bump keeps its lock
	// from the call to its writes.
	Scan
	// Nested: apply invokes relay::send, whose one invocation is on its
	// nested port; port::push goes on to the counter, which many relays
	// share, so send may not hold its lock through (§5.4.2).
	Nested
	// Ref: apply passes its amount in a local array to counter::take,
	// which bumps by the element, and zeroes the array after the call: a
	// spawned take must read the array as of the call.
	Ref
	// Reaches counts the ways.
	Reaches
)

// Counters is a program whose parallel work is updates of a pool of N
// counter objects: driver::runAll's loop of shape Loop and step Step
// applies Updates updates, each reaching its counter as Reach says, where
// counter::bump updates its adds as Op says (in mode Mode). After the
// loop the loop variable is added to a tally object of its own, so the
// value a loop leaves — a step of 2 or 3 oversteps the bound — shows in
// the state without touching what the updates touch. Valued adds
// driver::again, which applies every update once more and returns a
// number main notes and prints: runAll's extent with a root that returns
// a value, so no region root.
type Counters struct {
	N, Updates, Step, Mode int
	Loop                   LoopShape
	Valued                 bool
	Reach                  Reach
	Op                     Op
}

// DrawCounters draws every choice of a Counters but its Op (Accumulate),
// its Mode (0) and the reach Ref, which Draw draws.
func DrawCounters(r *rand.Rand) Counters {
	return Counters{N: 2 + r.Intn(6), Updates: 8 + r.Intn(40), Step: 1 + r.Intn(3),
		Loop: LoopShapes[r.Intn(len(LoopShapes))], Valued: r.Intn(2) == 0, Reach: Reach(r.Intn(int(Ref)))}
}

// Source renders the program, drawing its update targets and amounts.
func (c Counters) Source(r *rand.Rand) string {
	// The pieces a reach adds: classes ahead of the driver's, driver
	// members, statements of setup's counter loop and after its tables,
	// the body of apply, and what bump does around its writes.
	var classes, members, perCounter, perUpdate, bumpAsk, bumpUse, takeDecl, takeDef string
	applyBody := "counter *c;\n  c = cs[targets[u]];\n  c->bump(amounts[u]);"
	switch c.Reach {
	case Ref:
		takeDecl = "\n  void take(int v[1]);"
		takeDef = "void counter::take(int v[1]) {\n  this->bump(v[0]);\n}\n\n"
		applyBody = "counter *c;\n  int a[1];\n  c = cs[targets[u]];\n  a[0] = amounts[u];\n  c->take(a);\n  a[0] = 0;"
	case Scan:
		classes = `
class probe {
public:
  int w;
  void peek();
};

void probe::peek() {
  int t;
  t = w + 1;
}
`
		members = "\n  probe *ps[NC];\n  int np;\n  int scan();"
		perCounter = "\n    ps[i] = new probe;"
		perUpdate = "  np = NC;\n"
		bumpAsk, bumpUse = "  int f;\n  f = D.scan();\n", " + f"
	case Nested:
		classes = `
class port {
public:
  counter *to;
  void aim(counter *c);
  void push(int k);
};

void port::aim(counter *c) {
  to = c;
}

void port::push(int k) {
  to->bump(k);
}

class relay {
public:
  port out;
  int sent;
  void aim(counter *c);
  void send(int k);
};

void relay::aim(counter *c) {
  out.aim(c);
}

void relay::send(int k) {
  sent = sent + 1;
  out.push(k);
}
`
		members = "\n  relay *rs[NU];"
		perUpdate = "  for (i = 0; i < NU; i++) {\n    rs[i] = new relay;\n    rs[i]->aim(cs[targets[i]]);\n  }\n"
		applyBody = "relay *q;\n  q = rs[u];\n  q->send(amounts[u]);"
	}
	var again, againDecl, useAgain string
	if c.Valued {
		againDecl = "\n  int again();"
		again = `
int driver::again() {
  int u;
  for (u = 0; u < NU; u += 1) {
    this->apply(u);
  }
  return NU + 7;
}
`
		useAgain = "\n  x = D.again();\n  D.tl->note(x);\n  print(x);"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `
const int NC = %d;
const int NU = %d;

class counter {
public:
  int adds;
  int prods;
  int last;
  void bump(int k);
  int weight(int k);%s
};

void counter::bump(int k) {
%s%s  prods = prods * 2 + 0 * k%s;
}

%s%s%s
class tally {
public:
  int seen;
  void note(int v);
};

void tally::note(int v) {
  seen = seen + v;
}

class driver {
public:
  int mode;
  counter *cs[NC];
  tally *tl;
  int targets[NU];
  int amounts[NU];
  void setup();
  void apply(int u);
  void runAll();%s%s
};

driver D;

void driver::setup() {
  int i;
  mode = %d;
  tl = new tally;
  for (i = 0; i < NC; i++) {
    cs[i] = new counter;
    cs[i]->adds = 0;
    cs[i]->prods = 1;%s
  }
`, c.N, c.Updates, takeDecl, bumpAsk, c.Op.update("adds", "k", 1), bumpUse, takeDef, weightDef("counter", 1+r.Intn(9)), classes, againDecl, members, c.Mode, perCounter)
	for u := 0; u < c.Updates; u++ {
		fmt.Fprintf(&sb, "  targets[%d] = %d;\n  amounts[%d] = %d;\n", u, r.Intn(c.N), u, 1+r.Intn(9))
	}
	sb.WriteString(perUpdate)
	if c.Reach == Scan {
		sb.WriteString(`}

int driver::scan() {
  int i;
  for (i = 0; i < np; i += 1) {
    ps[i]->peek();
  }
  return 0;
`)
	}
	fmt.Fprintf(&sb, `}

void driver::apply(int u) {
  %s
}

void driver::runAll() {
  int u;
  int k;
  int n;
  int t;
  %s
  for (u = 0; u < %s; u += %d) {
    %s
  }
  tl->note(u);
}
%s
void main() {
  int x;
  D.setup();
  D.runAll();%s
}
`, applyBody, c.Loop.Pre, c.Loop.Bound, c.Step, c.Loop.Body, again, useAgain)
	return sb.String()
}

// Violating is a program that conflicts under speculation at every
// worker count: driver::run's 2 to 6 calls of counter::mark, an
// Overwrite, are spawned tasks of one region (each with its own journal)
// that all overwrite the one counter's last, so validation always finds
// a cross-task write-write conflict.
func Violating(r *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString(`
class counter {
public:
  int last;
  int total;
  void mark(int k);
};

void counter::mark(int k) {
` + Overwrite.update("total", "k", 1) + `}

class driver {
public:
  counter *c;
  void setup();
  void run();
};

driver D;

void driver::setup() {
  c = new counter;
}

void driver::run() {
`)
	for i := 2 + r.Intn(5); i > 0; i-- {
		fmt.Fprintf(&sb, "  c->mark(%d);\n", 1+r.Intn(99))
	}
	sb.WriteString("}\n\nvoid main() {\n  D.setup();\n  D.run();\n}\n")
	return sb.String()
}

// Analysis mixes commuting updates (good), an order-dependent recurrence
// (bad: some pairs fail symbolic testing and give Reason strings) and
// I/O-tainted ones (loud) over a pool of counters: the failure paths
// whose diagnostics must not depend on scheduling.
func Analysis(r *rand.Rand) string {
	counters, updates := 2+r.Intn(5), 4+r.Intn(12)
	var sb strings.Builder
	fmt.Fprintf(&sb, `
const int NC = %d;
const int NU = %d;

class counter {
public:
  int a; int b; int c;
  void good(int k);
  void bad(int k);
  void loud(int k);
};

void counter::good(int k) {
  a = a + k;
  b = b + 2 * k;
}

void counter::bad(int k) {
  a = a * 2 + k;
  c = c + a;
}

void counter::loud(int k) {
  b = b + k;
  print(b);
}

class driver {
public:
  counter *cs[NC];
  int targets[NU];
  int amounts[NU];
  void setup();
`, counters, updates)
	kinds := []string{"Good", "Bad", "Loud"}
	for _, k := range kinds {
		fmt.Fprintf(&sb, "  void apply%s(int u);\n  void run%s();\n", k, k)
	}
	sb.WriteString("};\n\ndriver D;\n\nvoid driver::setup() {\n  int i;\n  for (i = 0; i < NC; i++) {\n    cs[i] = new counter;\n    cs[i]->b = 1;\n  }\n")
	for u := 0; u < updates; u++ {
		fmt.Fprintf(&sb, "  targets[%d] = %d;\n  amounts[%d] = %d;\n", u, r.Intn(counters), u, 1+r.Intn(9))
	}
	sb.WriteString("}\n")
	for _, k := range kinds {
		fmt.Fprintf(&sb, "\nvoid driver::apply%s(int u) {\n  counter *x;\n  x = cs[targets[u]];\n  x->%s(amounts[u]);\n}\n", k, strings.ToLower(k))
		fmt.Fprintf(&sb, "\nvoid driver::run%s() {\n  int u;\n  for (u = 0; u < NU; u++)\n    this->apply%s(u);\n}\n", k, k)
	}
	sb.WriteString("\nvoid main() {\n  D.setup();\n  D.runGood();\n  D.runBad();\n  D.runLoud();\n}\n")
	return sb.String()
}

// Mixed is a program whose item classes mix the operations that give one
// method pair different symbolic outcomes in different extents: every Op
// — D.mode is an extent constant below the run methods and written state
// above them, so the guard and the helper call change answers — and
// while loops (not symbolically executable), with call chains inside a
// class and links across classes (extents overlap and share pairs).
// Every class also has look, which calls the read-only peek: that call
// site is auxiliary in quiet's extent, where nothing writes what peek
// reads, and an extent operation in the run methods', so the pair
// (look, look) is executed under both answers.
func Mixed(r *rand.Rand) string {
	classes, methods := 2+r.Intn(4), 2+r.Intn(3)
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
		b.WriteString(weightDef(fmt.Sprintf("c%d", c), 1+r.Intn(9)))
		fmt.Fprintf(&b, "void c%d::peek(int k) {\n  int t;\n  t = s0 + k;\n}\n\n", c)
		fmt.Fprintf(&b, "void c%d::look(int k) {\n  s1 = s1 + k;\n  this->peek(k);\n}\n\n", c)
		fmt.Fprintf(&b, "void c%d::bump(int k) {\n  s0 = s0 + k;\n}\n\n", c)
		for m := 0; m < methods; m++ {
			fmt.Fprintf(&b, "void c%d::op%d(int k) {\n", c, m)
			f, k := fmt.Sprintf("s%d", r.Intn(2)), 1+r.Intn(9)
			if op := Op(r.Intn(int(Ops) + 1)); op < Ops {
				b.WriteString(op.update(f, "k", k))
			} else {
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

// Work is a program of the shape the benchmark corpus is made of: a
// chain of op operations per cell, each updating the cell as op says,
// driven by constant loops — every method's work is bounded. Only the
// ModeGuarded shape branches.
func Work(r *rand.Rand, op Op) string {
	ni, rounds, depth := 2+r.Intn(7), 1+r.Intn(5), 1+r.Intn(3)
	k := func() int { return 1 + r.Intn(9) }
	var b strings.Builder
	fmt.Fprintf(&b, "const int NI = %d;\n\nclass cell {\npublic:\n  int s0;\n  int s1;\n  int last;\n  int cnt;\n", ni)
	for d := 0; d <= depth; d++ {
		fmt.Fprintf(&b, "  void op%d(int v);\n", d)
	}
	b.WriteString("  int weight(int k);\n};\n\nclass driver {\npublic:\n  int mode;\n  cell *a[NI];\n  int check;\n  void setup(int m);\n  void run();\n  void report();\n};\n\ndriver D;\n\n")
	b.WriteString(weightDef("cell", k()))
	for d := 0; d <= depth; d++ {
		fmt.Fprintf(&b, "void cell::op%d(int v) {\n%s  cnt += 1;\n", d, op.update(fmt.Sprintf("s%d", r.Intn(2)), "v", k()))
		if d < depth {
			fmt.Fprintf(&b, "  this->op%d(v + %d);\n", d+1, k())
		}
		b.WriteString("}\n\n")
	}
	b.WriteString("void driver::setup(int m) {\n  int i;\n  mode = m;\n  for (i = 0; i < NI; i += 1) {\n    a[i] = new cell;\n  }\n}\n\n")
	fmt.Fprintf(&b, "void driver::run() {\n  int i;\n  for (i = 0; i < NI; i += 1) {\n    a[i]->op0(i * %d + 1);\n  }\n}\n\n", k())
	b.WriteString("void driver::report() {\n  int i;\n  check = 0;\n  for (i = 0; i < NI; i += 1) {\n    check = check * 31 + a[i]->s0 + a[i]->s1 * 7 + a[i]->last * 3 + a[i]->cnt;\n  }\n  print(check);\n}\n\n")
	fmt.Fprintf(&b, "void main() {\n  int r;\n  D.setup(%d);\n  for (r = 0; r < %d; r += 1) {\n    D.run();\n  }\n  D.report();\n}\n", r.Intn(2), rounds)
	return b.String()
}

// Draw draws a program of any family, in any of its shapes.
func Draw(r *rand.Rand) string {
	switch r.Intn(6) {
	case 0:
		return Violating(r)
	case 1:
		return Analysis(r)
	case 2:
		return Mixed(r)
	case 3:
		return Work(r, Op(r.Intn(int(Ops))))
	}
	c := DrawCounters(r)
	c.Op, c.Mode = Op(r.Intn(int(Ops))), r.Intn(2)
	if r.Intn(int(Reaches)) == 0 {
		c.Reach = Ref
	}
	return c.Source(r)
}

// Repeat rewrites a program whose main enters a region once so that main
// runs init, then call rounds times (r is the round), then after.
func Repeat(source, init, call string, rounds int, after ...string) string {
	if i := strings.Index(source, "void main()"); i >= 0 {
		source = source[:i]
	}
	return source + fmt.Sprintf("void main() {\n  int r;\n  %s\n  for (r = 0; r < %d; r += 1) {\n    %s\n  }\n  %s\n}\n",
		init, rounds, call, strings.Join(after, "\n  "))
}
