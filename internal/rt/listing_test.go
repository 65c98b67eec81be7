package rt_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
	"commute/internal/oracle"
)

// listingNeutral strips the run-time library's constructs from an
// annotated listing back to plain calls the parser takes, line for line.
var listingNeutral = strings.NewReplacer(
	"parallel_for (", "for (",
	"spawn(", "ignore_spawn(",
	"replica(", "ignore_replica(",
	"lock mutex;", "int mutex__lockword;",
	"mutex.acquire();", "ignore_lock();",
	"mutex.release();", "ignore_lock();",
	"wait();", "ignore_wait();",
)

// listingCall is one call of a reparsed listing: the call, whether it is
// spawned or runs on a replica, and the version of the body it sits in.
type listingCall struct {
	call    *ast.CallExpr
	spawned bool
	replica bool
	in      codegen.Version
}

// listingLoop is one for loop of a reparsed listing: whether it is a
// parallel_for, and the version of the body it sits in.
type listingLoop struct {
	parallel bool
	in       codegen.Version
}

// TestEmitSourceSaysWhatRuns: the annotated source `commutec -emit source`
// prints answers every question from the plan the runtimes run, and
// decides nothing itself. Over every method of the shipped apps, of the
// loop, entry and dispatch fixtures, and of generator draws — every loop
// shape under every reach, and draws of every family — the reparsed
// listing says:
//
//	(a) every call site in m, m__parallel and m__mutex is spawned, on a
//	    replica, suffixed or plain as MethodPlan.Call answers for the
//	    body it sits in — a parallel_for's body runs as VersionIteration;
//	(b) a loop is a parallel_for iff LoopPlan.Parallel holds and it sits
//	    in a __parallel body;
//	(c) the serial version is `this->m__parallel(…); wait();` iff
//	    Plan.RegionRoot(m) and m's tier is proven, and is otherwise m as
//	    written, its return type included; a guarded or speculative
//	    root's carries its tier line;
//	(d) GeneratesConcurrency allocates nothing on a repeat query;
//	(e) every suffixed call names a version the listing defines, also
//	    of a method defined in its class body, and the listing defines
//	    no other version but a region root's parallel one.
//
// Three programs pin what the contention answers print: Water's four
// replicated accumulations are replica(…) in every version that reaches
// them, and Barnes-Hut's coarse walksub__mutex holds its one lock from
// its first line to its last, calling gravsub plain — no gravsub__mutex
// anywhere.
func TestEmitSourceSaysWhatRuns(t *testing.T) {
	sources := map[string]string{}
	for _, name := range strings.Split(src.AppNames(), ", ") {
		_, source, _ := src.App(name)
		sources["app "+name] = source
	}
	for _, fx := range src.LoopFixtures() {
		sources["loops/"+fx.Name] = fx.Source
	}
	for _, fx := range src.EntryFixtures() {
		sources["entry/"+fx.Name] = fx.Source
	}
	for _, fx := range src.DispatchFixtures() {
		sources["dispatch/"+fx.Name] = fx.Source
	}
	r := rand.New(rand.NewSource(26))
	for _, shape := range oracle.LoopShapes {
		for reach := oracle.Reach(0); reach < oracle.Reaches; reach++ {
			c := oracle.DrawCounters(r)
			c.Loop, c.Reach, c.Op = shape, reach, oracle.Op(r.Intn(int(oracle.Ops)))
			sources[fmt.Sprintf("loop %s, reach %d", shape.Name, reach)] = c.Source(r)
		}
	}
	for i := 0; i < 4; i++ {
		sources[fmt.Sprintf("draw %d", i)] = oracle.Draw(r)
	}

	var roots, spawns, parallelFors int
	tierLines := map[string]int{}
	replicaSites := map[string]map[int]bool{}
	for name, source := range sources {
		sys := oracle.Load(t, name+".mc", source)
		f, prog, plan := sys.File, sys.Prog, sys.Plan
		out := plan.EmitParallelSource(f)
		called := map[string]bool{}
		replicaSites[name] = map[int]bool{}
		listing, err := parser.Parse("listing.mc", listingNeutral.Replace(out))
		if err != nil {
			t.Fatalf("%s: the listing does not reparse: %v", name, err)
		}
		lines := strings.Split(out, "\n")

		defined := map[string]bool{}
		for _, d := range listing.Decls {
			if md, ok := d.(*ast.MethodDef); ok {
				defined[md.ClassName+"::"+md.Name] = true
			}
		}
		defs := map[*types.Method]int{}
		for _, d := range listing.Decls {
			md, ok := d.(*ast.MethodDef)
			if !ok {
				continue
			}
			base, suffix, _ := strings.Cut(md.Name, "__")
			m := prog.Funcs[base]
			if md.ClassName != "" {
				m = prog.Classes[md.ClassName].MethodByName(base)
			}
			mp := plan.Methods[m]
			defs[m]++
			in := map[string]codegen.Version{"": codegen.VersionSerial, "parallel": codegen.VersionParallel, "mutex": codegen.VersionMutex}[suffix]
			if in != codegen.VersionSerial && !mp.Parallel {
				t.Errorf("%s: %s::%s printed for a serial method", name, md.ClassName, md.Name)
				continue
			}

			// (c) The serial version.
			if in == codegen.VersionSerial {
				root := plan.RegionRoot(m)
				proven := root && mp.EntryFacts().Proven
				if entersRegion(md) != proven {
					t.Errorf("%s: serial version of %s enters a region = %t, Plan.RegionRoot = %t, proven = %t", name, m.FullName(), !proven, root, mp.EntryFacts().Proven)
					continue
				}
				if proven {
					roots++
					called[m.FullName()+"__parallel"] = true
					continue
				}
				if root {
					tier := "// speculative root: "
					if mp.Conditional {
						tier = "// guarded root: "
					}
					if !strings.HasPrefix(lines[md.Pos().Line-2], tier) {
						t.Errorf("%s: serial version of %s follows %q, want its tier line %q…", name, m.FullName(), lines[md.Pos().Line-2], tier)
					}
					tierLines[name]++
					called[m.FullName()+"__parallel"] = true
				}
				if md.RetType.Kind != m.Def.RetType.Kind || md.RetType.ClassName != m.Def.RetType.ClassName || md.RetType.Ptr != m.Def.RetType.Ptr {
					t.Errorf("%s: serial version of %s lost its return type", name, m.FullName())
				}
			}

			// (a) and (b): the listing's calls and loops, zipped in source
			// order with the method's own.
			calls, loops := listingBody(md.Body, in, lines)
			var want []*ast.CallExpr
			var wantLoops []*ast.ForStmt
			ast.Inspect(m.Def.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					want = append(want, x)
				case *ast.ForStmt:
					wantLoops = append(wantLoops, x)
				}
				return true
			})
			if len(calls) != len(want) || len(loops) != len(wantLoops) {
				t.Errorf("%s: %s::%s has %d calls and %d loops, the method %d and %d", name, md.ClassName, md.Name, len(calls), len(loops), len(want), len(wantLoops))
				continue
			}
			for i, c := range calls {
				w := want[i]
				sc := codegen.SiteCall{Run: codegen.VersionSerial}
				if !w.Builtin {
					site := prog.CallSites[w.Site]
					sc = mp.Call(c.in, site, plan.Methods[site.Callee])
				}
				if got := c.call.Method; got != w.Method+versionSuffix[sc.Run] || c.spawned != sc.Spawn || c.replica != sc.Replica {
					t.Errorf("%s: %s::%s at %s calls %s, spawned %t, replica %t; the call rule in version %d says %+v", name, md.ClassName, md.Name, w.Pos(), got, c.spawned, c.replica, c.in, sc)
				}
				if c.replica {
					replicaSites[name][w.Site] = true
				}
				// (e)
				if sc.Run != codegen.VersionSerial {
					version := prog.CallSites[w.Site].Callee.FullName() + versionSuffix[sc.Run]
					called[version] = true
					if !defined[version] {
						t.Errorf("%s: %s::%s at %s calls %s, which the listing never defines", name, md.ClassName, md.Name, w.Pos(), version)
					}
				}
				if c.spawned {
					spawns++
				}
			}
			for i, l := range loops {
				lp := plan.Loops[wantLoops[i]]
				if want := lp != nil && lp.Parallel && l.in == codegen.VersionParallel; l.parallel != want {
					t.Errorf("%s: loop of %s::%s at %s is a parallel_for = %t, want %t", name, md.ClassName, md.Name, wantLoops[i].Pos(), l.parallel, want)
				}
				if l.parallel {
					parallelFors++
				}
			}
		}
		for _, m := range prog.Methods {
			if m.Def == nil {
				continue
			}
			// A serial method defined in its class body is printed there, as
			// written; a parallel one's versions follow the class.
			want := 1
			for _, suffix := range []string{"__parallel", "__mutex"} {
				if defined[m.FullName()+suffix] {
					want++
					if !called[m.FullName()+suffix] {
						t.Errorf("%s: the listing defines %s%s, which nothing runs", name, m.FullName(), suffix)
					}
				}
			}
			if defs[m] != want && (plan.Methods[m].Parallel || slices.Contains(f.Decls, ast.Decl(m.Def))) {
				t.Errorf("%s: %s printed %d times, want %d", name, m.FullName(), defs[m], want)
			}
			// (d)
			if n := testing.AllocsPerRun(5, func() { plan.GeneratesConcurrency(m) }); n != 0 {
				t.Errorf("%s: GeneratesConcurrency(%s) allocates %v times", name, m.FullName(), n)
			}
		}
	}
	if roots == 0 || spawns == 0 || parallelFors == 0 {
		t.Fatalf("%d region roots, %d spawns and %d parallel_for in the whole corpus", roots, spawns, parallelFors)
	}
	if tierLines["app condhash"] == 0 || tierLines["app specdisjoint"] == 0 {
		t.Errorf("tier lines: %v; want the guarded roots of condhash and the speculative ones of specdisjoint", tierLines)
	}
	if n := len(replicaSites["app water"]); n != 4 {
		t.Errorf("Water's listing prints %d replicated sites, want 4", n)
	}

	// Barnes-Hut's coarse mutex version: one acquire first, one release
	// last, gravsub plain between them.
	_, source, _ := src.App("barneshut")
	bh := oracle.Load(t, "barneshut.mc", source)
	out := bh.Plan.EmitParallelSource(bh.File)
	if strings.Contains(out, "gravsub__mutex(") {
		t.Error("the Barnes-Hut listing has a gravsub__mutex")
	}
	_, walk, _ := strings.Cut(out, "void body::walksub__mutex(node *n, double dsq) {\n")
	walk, _, _ = strings.Cut(walk, "\n}\n")
	if !strings.HasPrefix(walk, "  mutex.acquire();\n") || !strings.HasSuffix(walk, "\n  mutex.release();") ||
		strings.Count(walk, "mutex.") != 2 || !strings.Contains(walk, "    this->gravsub(n);\n") {
		t.Errorf("body::walksub__mutex is not its serial body under one lock:\n%s", walk)
	}
}

var versionSuffix = [...]string{codegen.VersionSerial: "", codegen.VersionParallel: "__parallel", codegen.VersionMutex: "__mutex"}

// entersRegion reports whether a reparsed serial version is
// `this->m__parallel(params); wait();`.
func entersRegion(md *ast.MethodDef) bool {
	callOf := func(i int) *ast.CallExpr {
		if es, ok := md.Body.Stmts[i].(*ast.ExprStmt); ok {
			call, _ := es.X.(*ast.CallExpr)
			return call
		}
		return nil
	}
	if len(md.Body.Stmts) != 2 {
		return false
	}
	call, wait := callOf(0), callOf(1)
	if call == nil || wait == nil || call.Method != md.Name+"__parallel" || wait.Method != "ignore_wait" || len(call.Args) != len(md.Params) {
		return false
	}
	for i, a := range call.Args {
		if id, ok := a.(*ast.Ident); !ok || id.Name != md.Params[i].Name {
			return false
		}
	}
	return true
}

// listingBody collects the calls and loops of a reparsed version body
// running as in, in source order: the runtime constructs are dropped, a
// spawned call is marked, and a parallel_for — a for whose line in the
// listing says so — runs its body as VersionIteration.
func listingBody(body *ast.Block, in codegen.Version, lines []string) ([]listingCall, []listingLoop) {
	var calls []listingCall
	var loops []listingLoop
	var walk func(n ast.Node, in codegen.Version)
	walk = func(n ast.Node, in codegen.Version) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ForStmt:
				l := listingLoop{strings.Contains(lines[x.Pos().Line-1], "parallel_for ("), in}
				loops = append(loops, l)
				if !l.parallel {
					return true
				}
				for _, part := range []ast.Node{x.Init, x.Cond, x.Post} {
					if part != nil {
						walk(part, in)
					}
				}
				walk(x.Body, codegen.VersionIteration)
				return false
			case *ast.CallExpr:
				switch x.Method {
				case "ignore_lock", "ignore_wait":
					return false
				case "ignore_spawn", "ignore_replica":
					calls = append(calls, listingCall{x.Args[0].(*ast.CallExpr), x.Method == "ignore_spawn", x.Method == "ignore_replica", in})
					inner := x.Args[0].(*ast.CallExpr)
					if inner.Recv != nil {
						walk(inner.Recv, in)
					}
					for _, a := range inner.Args {
						walk(a, in)
					}
					return false
				}
				calls = append(calls, listingCall{x, false, false, in})
			}
			return true
		})
	}
	walk(body, in)
	return calls, loops
}
