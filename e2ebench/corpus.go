package main

// The seeded input generator. Everything the programs under test see —
// synthetic sources, application mains, the serve request order —
// derives from one seed here; the same seed gives byte-identical
// inputs.
//
// The *shapes* of the synthetic programs (class count, operations per
// class, call depth, how many classes are overwrite / mode-guarded /
// while-loop kinds) form a fixed grid, so the corpus's aggregate size
// and analysis cost are the same on every seed and metrics taken over
// it compare across seeds. The seed picks what the grid leaves open:
// which class gets which kind, every numeric coefficient, and the
// program's tag (hence its fingerprint). All seeded tokens are
// fixed-width so source and emitted byte counts do not drift with the
// draw.

import (
	"fmt"
	"math/rand"
	"strings"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/rt"
)

// program is one input: a source text plus how to load and run it.
type program struct {
	name   string
	source string
	load   commute.LoadOptions
	// conditional and speculate configure parallel runs (the guard and
	// speculation policies the program was written to exercise).
	conditional bool
	speculate   rt.SpecMode
	// floatState marks programs whose parallel runs reorder float
	// accumulations: their parallel dumps are compared within 1e-9
	// relative instead of byte for byte.
	floatState bool
}

// kind is what an item class's operations do to their receiver.
type kind int

const (
	kindAcc   kind = iota // s = s + k: commutes, proven parallel
	kindOver              // last = k: rejected at the pair stage, speculative
	kindGuard             // accumulate or overwrite on D.mode: conditional
	kindWhile             // pointer-chasing while loop: needs the §7.2 transform
)

// shape fixes the structural parameters of one synthetic program.
type shape struct {
	classes int  // item classes (2-24)
	methods int  // operations per class
	depth   int  // length of the this->op chain inside a class
	link    bool // last chained op also invokes the next class's op0 (extents span classes)
	over    int  // classes of kindOver
	guard   int  // classes of kindGuard
	while   int  // classes of kindWhile
}

const synthItems = 6 // objects per item class

// corpusShapes is the fixed set of 56 shapes: many small programs and a
// few large ones (class counts 2-24, sources ~1 KB to ~30 KB), each
// class count cycling through seven variants of methods per class,
// call depth and kind mix. Pair-test work grows with methods² per class
// and, for linked shapes, with the whole extent, so compile times span
// two orders of magnitude and the p99 sits inside the few large shapes.
func corpusShapes() []shape {
	var out []shape
	for _, cc := range []struct{ classes, n int }{
		{2, 16}, {3, 14}, {4, 10}, {6, 7}, {8, 4}, {12, 2}, {16, 2}, {24, 1},
	} {
		c := cc.classes
		share := func(n int) int { // n eighths of the classes, at least one
			if v := c * n / 8; v > 0 {
				return v
			}
			return 1
		}
		for i := 0; i < cc.n; i++ {
			var sh shape
			switch v := len(out) % 7; v {
			case 0:
				sh = shape{methods: 2} // all proven
			case 1:
				sh = shape{methods: 3, depth: 1, over: share(2)}
			case 2:
				sh = shape{methods: 3, depth: 1, guard: share(2)}
			case 3:
				sh = shape{methods: 2, depth: 1, while: share(2)}
			case 4:
				sh = shape{methods: 4, depth: 2, over: share(1), guard: share(1)}
			case 5:
				sh = shape{methods: 5, depth: 3, link: c <= 4}
			case 6:
				sh = shape{methods: 6, depth: 2, over: share(1), guard: share(1), while: share(1)}
			}
			sh.classes = c
			out = append(out, sh)
		}
	}
	return out
}

// synth renders one synthetic program. rounds is how many times main
// repeats the phases (run time knob); mode is D.mode (0: guards hold).
func synth(r *rand.Rand, sh shape, rounds, mode int) string {
	kinds := make([]kind, sh.classes)
	n := 0
	for _, kc := range []struct {
		k kind
		n int
	}{{kindOver, sh.over}, {kindGuard, sh.guard}, {kindWhile, sh.while}} {
		for i := 0; i < kc.n && n < sh.classes; i++ {
			kinds[n] = kc.k
			n++
		}
	}
	r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	coef := func() int { return 10 + r.Intn(90) } // always two digits

	var b strings.Builder
	fmt.Fprintf(&b, "// synthetic %02dx%02d tag %06x\nconst int NI = %d;\n\n", sh.classes, sh.methods, r.Intn(1<<24), synthItems)

	// Declarations. Classes are declared last-first so a linked class
	// can name its successor.
	for c := sh.classes - 1; c >= 0; c-- {
		if kinds[c] == kindWhile {
			fmt.Fprintf(&b, "class n%02d {\npublic:\n  int v;\n  n%02d *next;\n};\n\n", c, c)
		}
		fmt.Fprintf(&b, "class c%02d {\npublic:\n  int s0;\n  int s1;\n  int cnt;\n", c)
		switch kinds[c] {
		case kindOver:
			b.WriteString("  int last;\n")
		case kindWhile:
			fmt.Fprintf(&b, "  n%02d *head;\n", c)
		}
		if sh.link && c+1 < sh.classes {
			fmt.Fprintf(&b, "  c%02d *peer;\n", c+1)
		}
		for m := 0; m < sh.methods; m++ {
			fmt.Fprintf(&b, "  void op%d(int k);\n", m)
		}
		b.WriteString("};\n\n")
	}
	b.WriteString("class driver {\npublic:\n  int mode;\n  int check;\n")
	for c := 0; c < sh.classes; c++ {
		fmt.Fprintf(&b, "  c%02d *a%02d[NI];\n", c, c)
	}
	b.WriteString("  void setup(int m);\n")
	for c := 0; c < sh.classes; c++ {
		fmt.Fprintf(&b, "  void run%02d();\n", c)
	}
	b.WriteString("  void report();\n};\n\ndriver D;\n\n")

	// Operations.
	for c := 0; c < sh.classes; c++ {
		for m := 0; m < sh.methods; m++ {
			fmt.Fprintf(&b, "void c%02d::op%d(int k) {\n", c, m)
			field := fmt.Sprintf("s%d", m%2)
			switch {
			case kinds[c] == kindOver && m == 0:
				fmt.Fprintf(&b, "  last = k;\n  %s = %s + k * %d;\n", field, field, coef())
			case kinds[c] == kindGuard && m == 0:
				fmt.Fprintf(&b, "  if (D.mode == 0) {\n    %s = %s + k * %d;\n  } else {\n    %s = k;\n  }\n", field, field, coef(), field)
			case kinds[c] == kindWhile && m == 0:
				fmt.Fprintf(&b, "  n%02d *p;\n  p = head;\n  while (p != NULL) {\n    %s = %s + p->v * %d;\n    p = p->next;\n  }\n", c, field, field, coef())
			default:
				fmt.Fprintf(&b, "  %s = %s + k * %d + %d;\n", field, field, coef(), coef())
			}
			b.WriteString("  cnt = cnt + 1;\n")
			if m < sh.depth && m+1 < sh.methods {
				fmt.Fprintf(&b, "  this->op%d(k + %d);\n", m+1, coef())
			} else if m == sh.depth && sh.link && c+1 < sh.classes {
				fmt.Fprintf(&b, "  peer->op0(k + %d);\n", coef())
			}
			b.WriteString("}\n\n")
		}
	}

	// Driver: setup, one phase per class, report.
	b.WriteString("void driver::setup(int m) {\n  int i;\n  mode = m;\n")
	for c := sh.classes - 1; c >= 0; c-- {
		fmt.Fprintf(&b, "  for (i = 0; i < NI; i += 1) {\n    a%02d[i] = new c%02d;\n", c, c)
		if kinds[c] == kindWhile {
			fmt.Fprintf(&b, "    a%02d[i]->head = new n%02d;\n    a%02d[i]->head->v = i + %d;\n    a%02d[i]->head->next = new n%02d;\n    a%02d[i]->head->next->v = i + %d;\n",
				c, c, c, coef(), c, c, c, coef())
		}
		if sh.link && c+1 < sh.classes {
			fmt.Fprintf(&b, "    a%02d[i]->peer = a%02d[i];\n", c, c+1)
		}
		b.WriteString("  }\n")
	}
	b.WriteString("}\n\n")
	for c := 0; c < sh.classes; c++ {
		fmt.Fprintf(&b, "void driver::run%02d() {\n  int i;\n  for (i = 0; i < NI; i += 1) {\n    a%02d[i]->op0(i * %d + 1);\n", c, c, coef())
		// Operations the chain does not reach are invoked from the loop.
		first := sh.depth + 1
		for m := first; m < sh.methods; m++ {
			fmt.Fprintf(&b, "    a%02d[i]->op%d(i + %d);\n", c, m, coef())
		}
		b.WriteString("  }\n}\n\n")
	}
	b.WriteString("void driver::report() {\n  int i;\n  check = 0;\n")
	for c := 0; c < sh.classes; c++ {
		fmt.Fprintf(&b, "  for (i = 0; i < NI; i += 1) {\n    check = (check * 31 + a%02d[i]->s0 + a%02d[i]->s1 * 7 + a%02d[i]->cnt) %% 1000003;\n  }\n", c, c, c)
	}
	b.WriteString("  print(check);\n}\n\n")
	fmt.Fprintf(&b, "void main() {\n  int r;\n  D.setup(%d);\n  for (r = 0; r < %d; r += 1) {\n", mode, rounds)
	for c := 0; c < sh.classes; c++ {
		fmt.Fprintf(&b, "    D.run%02d();\n", c)
	}
	b.WriteString("  }\n  D.report();\n}\n")
	return b.String()
}

func synthProgram(r *rand.Rand, i int, sh shape, rounds int) program {
	return program{
		name:        fmt.Sprintf("synth-%02d-c%02dm%02d", i, sh.classes, sh.methods),
		source:      synth(r, sh, rounds, 0),
		load:        commute.LoadOptions{Transform: sh.while > 0},
		conditional: true,
		speculate:   rt.SpecAuto,
	}
}

// withReport splices print statements in front of main's closing
// brace, so a timed run's output can be checked without a state dump.
func withReport(main, prints string) string {
	i := strings.LastIndexByte(main, '}')
	return main[:i] + prints + main[i:]
}

const (
	bhReport = `  print(Nbody.bodies[0]->pos.val[0], Nbody.bodies[0]->vel.val[1], Nbody.bodies[0]->phi);
  print(Nbody.bodies[Nbody.numbodies - 1]->pos.val[2], Nbody.bodies[Nbody.numbodies - 1]->acc.val[0]);
`
	waterReport = `  print(Sums.pot, Sums.kin);
  print(Water.mols[0]->px, Water.mols[Water.nmol - 1]->vz);
`
	graphReport = `  print(Builder.root->sum, Builder.nodes[Builder.numnodes - 1]->sum);
`
)

// Application programs, sized by the caller; seed feeds the
// applications' own input generators.
func bhProgram(bodies, steps, seed int) program {
	return program{
		name:       fmt.Sprintf("bh-%dx%d", bodies, steps),
		source:     src.BarnesHutBase + withReport(src.BarnesHutMain(bodies, steps, seed), bhReport),
		floatState: true,
	}
}

func waterProgram(mols, steps, seed int) program {
	return program{
		name:       fmt.Sprintf("water-%dx%d", mols, steps),
		source:     src.WaterBase + withReport(src.WaterMain(mols, steps, seed), waterReport),
		floatState: true,
	}
}

func graphProgram(nodes, seed int) program {
	return program{
		name:   fmt.Sprintf("graph-%d", nodes),
		source: src.GraphBase + withReport(src.GraphMain(nodes, seed), graphReport),
	}
}

// condhashProgram is the conditional-commutativity table: mode 0 makes
// every guard hold (one parallel region per round), mode 3 makes every
// guard fail (serial path).
func condhashProgram(mode, rounds int) program {
	return program{
		name:        fmt.Sprintf("condhash%d-%d", mode, rounds),
		source:      src.CondHashBase + src.CondHashMain(mode, rounds),
		conditional: true,
	}
}

// specProgram wraps a shipped speculation demonstrator's region in an
// outer repeat loop: body is the shipped source, global its driver
// object, region the method main repeats and report the one that
// prints the result.
func specProgram(name, body, global, region, report string, rounds int) program {
	main := fmt.Sprintf("void main() {\n  int r;\n  %[1]s.init();\n  for (r = 0; r < %[2]d; r += 1) {\n    %[1]s.%[3]s();\n  }\n  %[1]s.%[4]s();\n}\n",
		global, rounds, region, report)
	return program{
		name:      fmt.Sprintf("%s-%d", name, rounds),
		source:    body[:strings.Index(body, "void main()")] + main,
		speculate: rt.SpecForce,
	}
}

// specDisjointProgram: every region commits.
func specDisjointProgram(rounds int) program {
	return specProgram("spec-disjoint", src.SpecDisjoint, "T", "fill", "report", rounds)
}

// specConflictProgram: every region aborts and reruns serially.
func specConflictProgram(rounds int) program {
	return specProgram("spec-conflict", src.SpecConflict, "D", "run", "show", rounds)
}

// compileCorpus is the compile section's input: the shipped
// applications plus the 56 synthetic shapes.
func compileCorpus(seed int64) []program {
	r := rand.New(rand.NewSource(seed))
	s := func() int { return 1 + r.Intn(1<<20) }
	out := []program{
		// Compile cost does not depend on the problem size in main; the
		// sizes are small because the warm-up pass also runs each program.
		bhProgram(64, 1, s()), bhProgram(128, 2, s()),
		waterProgram(27, 1, s()), waterProgram(64, 2, s()),
		graphProgram(64, s()), graphProgram(1024, s()),
		condhashProgram(0, 64), condhashProgram(3, 64),
		specDisjointProgram(16), specConflictProgram(16),
	}
	for i, sh := range corpusShapes() {
		out = append(out, synthProgram(r, i, sh, 2))
	}
	return out
}
