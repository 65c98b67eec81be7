package parser_test

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
)

// TestCheckedTreeDigest pins what the checker writes: every node of
// every corpus tree after types.Check — the names it resolves and the
// slots and store coercions it assigns — with each class's layout
// (declaring class, field, slot) and each method's frame (name, type,
// whether a parameter). The digest was recorded from the interpreter's
// resolution pass, which assigned the slots before the checker did.
func TestCheckedTreeDigest(t *testing.T) {
	const want = "649fc9cf53ec81d55db48d5ec2952803596897481ef04c52f742a11118c5c249"
	h := sha256.New()
	nodes := 0
	for i, s := range digestCorpus() {
		f, err := parser.Parse("digest.mc", s)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		prog, err := types.Check(f)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		nodes += dumpNode(h, reflect.ValueOf(f))
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
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("digest over %d checked nodes is %s, want %s", nodes, got, want)
	}
}
