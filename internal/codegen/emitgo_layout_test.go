package codegen

import (
	"go/format"
	"math/rand"
	"strings"
	"testing"

	"commute/internal/frontend/types"
)

// TestSpecSetSrcAlignment pins the one layout rule that depends on
// sizes rather than structure against the formatter itself: where
// gofmt stops aligning the values of a key-value block (keys past 40
// bytes whose size jumps by 2.5x against the section's geometric mean).
// Key sizes are drawn on both sides of both thresholds.
func TestSpecSetSrcAlignment(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := &types.Method{Name: "m"}
	sections := 0
	for i := 0; i < 500; i++ {
		keys := make([]string, r.Intn(9))
		for j := range keys {
			n := 1 + r.Intn(38) // quoted: 3-40 bytes
			switch r.Intn(3) {
			case 1:
				n = 34 + r.Intn(12) // around smallSize
			case 2:
				n = 39 + r.Intn(160)
			}
			keys[j] = strings.Repeat("k", n)
		}
		src := "package p\n\n" + specSetSrc("specRd_m", m, "read", keys)
		fmted, err := format.Source([]byte(src))
		if err != nil {
			t.Fatalf("keys %q: %v", keys, err)
		}
		if string(fmted) != src {
			t.Fatalf("not in gofmt's form:\n%s\ngofmt:\n%s", src, fmted)
		}
		if strings.Contains(src, "\": true") && strings.Contains(src, "\":  ") {
			sections++
		}
	}
	if sections < 50 {
		t.Errorf("only %d of 500 literals mixed aligned and unaligned sections; the draw no longer exercises the rule", sections)
	}
}
