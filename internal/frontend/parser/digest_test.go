package parser_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/frontend/parser"
	"commute/internal/oracle"
)

// digestCorpus is every shipped program, the fixtures, and a fixed set
// of generated ones.
func digestCorpus() []string {
	progs := []string{src.BarnesHut, src.Water, src.Graph, src.SpecDisjoint, src.SpecConflict,
		src.CondHashBase + src.CondHashMain(0, 6)}
	for _, fx := range src.LoopFixtures() {
		progs = append(progs, fx.Source)
	}
	for _, fx := range src.EntryFixtures() {
		progs = append(progs, fx.Source)
	}
	for _, fx := range src.DispatchFixtures() {
		progs = append(progs, fx.Source)
	}
	for seed := int64(1); seed <= 48; seed++ {
		progs = append(progs, oracle.Draw(rand.New(rand.NewSource(seed))))
	}
	return progs
}

// TestParseTreeDigest pins what the parser builds: every node of every
// corpus tree, its kind, position and fields, and the error text of
// every 53rd-byte prefix of the shipped apps (so each syntax error and
// its recovery is seen at many points of real programs) and of inputs
// that stop the parser early. The digest was
// recorded from the ring-buffer parser this one replaced; any change to
// a tree, a position or a message moves it.
func TestParseTreeDigest(t *testing.T) {
	const want = "71db7476f94958d56542bef7778ee306ef51cfa927dc7b269b0cedf536b38c40"
	h := sha256.New()
	nodes := 0
	for i, s := range digestCorpus() {
		f, err := parser.Parse("digest.mc", s)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		nodes += dumpNode(h, reflect.ValueOf(f))
	}
	var bad []string
	for _, s := range []string{src.BarnesHut, src.Water, src.Graph} {
		for n := 0; n < len(s); n += 53 {
			bad = append(bad, s[:n])
		}
	}
	// Past twelve errors the parser stops after the declaration it is
	// in; what the lexer reports of the next token depends on whether
	// the parser looked at it.
	many := strings.Repeat("int ; ", 13)
	bad = append(bad, "class a { "+many+"}; |", "class a { "+many+"} |", "class a { "+many+"} ; 1e",
		"void m() { "+many+"} \"x", "void m() { "+many+"} @ @", "class a { "+many+"}; Foo * |")
	errs := 0
	for i, s := range bad {
		if _, err := parser.Parse("bad.mc", s); err != nil {
			fmt.Fprintf(h, "%d %s\n", i, err)
			errs++
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("digest over %d nodes and %d error texts is %s, want %s", nodes, errs, got, want)
	}
}

// dumpNode writes v's type and every field of every struct reachable
// from it to h, depth first, and returns the number of structs it saw.
func dumpNode(h hash.Hash, v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			fmt.Fprint(h, "nil;")
			return 0
		}
		return dumpNode(h, v.Elem())
	case reflect.Slice:
		fmt.Fprintf(h, "[%d:", v.Len())
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += dumpNode(h, v.Index(i))
		}
		fmt.Fprint(h, "]")
		return n
	case reflect.Struct:
		fmt.Fprintf(h, "%s{", v.Type())
		n := 1
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(h, "%s=", v.Type().Field(i).Name)
			n += dumpNode(h, v.Field(i))
		}
		fmt.Fprint(h, "}")
		return n
	default:
		fmt.Fprintf(h, "%v;", v)
		return 0
	}
}
