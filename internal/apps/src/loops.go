package src

import (
	"embed"
	"fmt"
	"strconv"
	"strings"
)

// The parallel-loop legality fixtures, loops/*.mc: one skeleton, one
// body for driver::run per fixture. cell::bump commutes with itself, so
// driver::run is parallel whatever its body and its for loop is a
// parallel-loop candidate; what differs is whether the iterations may
// run out of order on private copies of the frame (codegen's
// loopLegality). report prints a sum weighted by cell index, so a wrong
// set of iterations, or the right ones on the wrong cells, shows in the
// one printed number. The loops run to the field cnt, which bounds no
// work estimate: every region opens on both runtimes.
// scripts/wide_sources.sh assembles the same files.
//
// The region-entry fixtures, entry/*.mc, are whole programs: in each a
// method that would be a region root — proven, guarded, speculative —
// returns a value its serial caller prints, at a size above both
// runtimes' entry cost.
//
// The in-region dispatch fixtures, dispatch/*.mc, are whole programs too:
// a tree walk whose operation reaches, through an auxiliary call or a
// nested object, code that a region must run as plain serial code — a
// helper that loops over operations, an operation on a shared object —
// or, in nested-spawn, must not.
//
//go:embed loops/*.mc entry/*.mc dispatch/*.mc
var fixtureFiles embed.FS

func fixtureFile(path string) string {
	text, err := fixtureFiles.ReadFile(path + ".mc")
	if err != nil {
		panic(err) // the files are compiled in
	}
	return string(text)
}

// EntryFixture is one region-entry fixture: its program and the method
// whose result main uses.
type EntryFixture struct{ Name, Source, Root string }

// EntryFixtures lists the three fixtures.
func EntryFixtures() []EntryFixture {
	fx := func(name, root string) EntryFixture { return EntryFixture{name, fixtureFile("entry/" + name), root} }
	return []EntryFixture{
		fx("value-proven", "table::ingest"),
		fx("value-guarded", "table::ingest"),
		fx("value-spec", "table::fill"),
	}
}

// DispatchFixture is one in-region dispatch fixture: its program and the
// one line the serial program prints.
type DispatchFixture struct{ Name, Source, Output string }

// DispatchFixtures lists the three fixtures.
func DispatchFixtures() []DispatchFixture {
	fx := func(name, output string) DispatchFixture {
		return DispatchFixture{name, fixtureFile("dispatch/" + name), output}
	}
	return []DispatchFixture{
		fx("aux-loop", "196605\n"),
		fx("hoist-escape", "49149\n"),
		fx("nested-spawn", "393210\n"),
	}
}

// AtDepth is the fixture's program over a tree of depth d: for the tests
// that check what timing does not decide, which need no large one.
func (fx DispatchFixture) AtDepth(d int) string {
	const call = "root->grow("
	i := strings.Index(fx.Source, call) + len(call)
	j := i + strings.Index(fx.Source[i:], ")")
	return fx.Source[:i] + strconv.Itoa(d) + fx.Source[j:]
}

// LoopProgram is the skeleton over n cells with run as the statements of
// driver::run (its locals are int i, k, n and cell *c).
func LoopProgram(n int, run string) string {
	s := strings.Replace(fixtureFile("loops/skeleton"), "const int N = 64;", fmt.Sprintf("const int N = %d;", n), 1)
	return strings.Replace(s, "  RUN\n", strings.Trim(run, "\n")+"\n", 1)
}

// LoopFixture is one legality fixture: its program, the loops of
// driver::run the plan runs in parallel, and the reason it gives for
// refusing the first one ("" when there is none to give).
type LoopFixture struct {
	Name, Source string
	Parallel     int
	Reason       string
}

// LoopFixtures lists the seven fixtures. carried runs over 4000 cells:
// its helpers need the time to join.
func LoopFixtures() []LoopFixture {
	fx := func(name string, n, parallel int, reason string) LoopFixture {
		return LoopFixture{name, LoopProgram(n, fixtureFile("loops/"+name)), parallel, reason}
	}
	return []LoopFixture{
		fx("skip", 64, 0, "body assigns loop variable i"),
		fx("bound", 64, 0, "bound reads n, assigned in the body"),
		fx("carried", 4000, 0, "k carried across iterations"),
		fx("after", 64, 0, "c read after the loop"),
		fx("final", 64, 2, ""),
		fx("initop", 64, 0, "header is not a counted loop"),
		fx("le", 64, 0, "header is not a counted loop"),
	}
}
