// Package transformtest holds the oracle of the in-place loop
// replacement. A load under Transform rewrites the checked tree and
// checks that same tree again; the oracle is the round trip it
// replaced: rewrite the checked tree, print it, and parse and check the
// printed text from scratch. The two must say the same thing about the
// program, except where they say where in a text something is.
package transformtest

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"reflect"
	"regexp"
	"sort"
	"strings"

	"commute"
	"commute/internal/codegen"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/token"
	"commute/internal/frontend/types"
	"commute/internal/transform"
)

// Diff loads source under Transform and through the printed round trip
// and describes the first output in which the two differ; "" when they
// agree. The outputs are the analysis reports, the parallel source, each
// file of the Go package and a digest of the checked tree and program,
// positions masked in the reports and the digest. A load that fails one
// way must fail the other way too. checked reports whether the source
// loaded at all.
func Diff(name, source string) (diff string, checked bool) {
	inPlace, err1 := commute.LoadOpts(name, source, commute.LoadOptions{Transform: true})
	roundTrip, err2 := loadRoundTrip(name, source)
	switch {
	case (err1 == nil) != (err2 == nil):
		return fmt.Sprintf("in place: error %v; round trip: error %v", err1, err2), err1 == nil
	case err1 != nil:
		return "", false
	}
	want, got := outputs(name, roundTrip), outputs(name, inPlace)
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			return fmt.Sprintf("%s differs: in place\n%s\nround trip\n%s", k, got[k], want[k]), true
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d outputs in place, %d through the round trip", len(got), len(want)), true
	}
	return "", true
}

// loadRoundTrip is the round trip: check the source, rewrite it, and
// load the printed rewrite as a new text.
func loadRoundTrip(name, source string) (*commute.System, error) {
	file, err := parser.Parse(name, source)
	if err != nil {
		return nil, err
	}
	prog, err := types.Check(file)
	if err != nil {
		return nil, err
	}
	if printed, rewrites := transform.WhileToRecursion(prog, file); len(rewrites) > 0 {
		source = printed
	}
	return commute.Load(name, source)
}

// position matches a rendered token.Pos.
var position = regexp.MustCompile(`\d+:\d+`)

// outputs renders everything a System says about its program.
func outputs(name string, sys *commute.System) map[string]string {
	var rep strings.Builder
	for _, r := range sys.Reports() {
		fmt.Fprintf(&rep, "%s parallel=%t reason=%q aux=%d extent=%d indep=%d symbolic=%d conf=%g cond=%q guarded=%t spec=%t\n",
			r.Method.FullName(), r.Parallel, r.Reason, r.AuxiliaryCallSites, r.ExtentSize, r.IndependentPairs,
			r.SymbolicPairs, r.Confidence, r.Condition, r.ConditionalEligible, r.SpeculationEligible)
		for _, p := range r.Pairs {
			fmt.Fprintf(&rep, "  %s / %s independent=%t commutes=%t reason=%q cond=%q\n",
				p.M1.FullName(), p.M2.FullName(), p.Independent, p.Commutes, p.Reason, p.Condition)
		}
	}
	out := map[string]string{
		"reports":         position.ReplaceAllString(rep.String(), "L:C"),
		"parallel source": sys.Plan.EmitParallelSource(sys.File),
		"checked tree":    checkedDigest(sys.File, sys.Prog),
	}
	files, err := sys.Plan.EmitGoPackage(codegen.EmitGoOptions{AppName: name})
	if err != nil {
		out["Go package"] = "error: " + err.Error() // a program without main has none
	}
	for f, text := range files {
		out["Go file "+f] = string(text)
	}
	return out
}

// checkedDigest hashes a checked tree in the manner of the parser's
// TestCheckedTreeDigest — every node, then each class's layout and each
// method's frame — leaving out positions and File.Size, the two facts
// about the text rather than the program.
func checkedDigest(f *ast.File, prog *types.Program) string {
	h := sha256.New()
	dump(h, reflect.ValueOf(f))
	for _, cl := range prog.ClassList {
		fmt.Fprintf(h, "class %s:", cl.Name)
		for _, f := range cl.Layout {
			fmt.Fprintf(h, " %s.%s@%d", f.Class.Name, f.Name, f.Slot)
		}
		fmt.Fprintln(h)
	}
	for _, m := range prog.Methods {
		fmt.Fprintf(h, "frame %s:", m.FullName())
		for _, v := range m.Frame {
			fmt.Fprintf(h, " %s %s %t", v.Name, v.Type, v.Param)
		}
		fmt.Fprintln(h)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

var (
	posType  = reflect.TypeFor[token.Pos]()
	fileType = reflect.TypeFor[ast.File]()
)

func dump(h hash.Hash, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			fmt.Fprint(h, "nil;")
			return
		}
		dump(h, v.Elem())
	case reflect.Slice:
		fmt.Fprintf(h, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			dump(h, v.Index(i))
		}
		fmt.Fprint(h, "]")
	case reflect.Struct:
		fmt.Fprintf(h, "%s{", v.Type())
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.Type == posType || v.Type() == fileType && f.Name == "Size" {
				continue
			}
			fmt.Fprintf(h, "%s=", f.Name)
			dump(h, v.Field(i))
		}
		fmt.Fprint(h, "}")
	default:
		fmt.Fprintf(h, "%v;", v)
	}
}
