package parser

import (
	"testing"

	"commute/internal/apps/src"
)

// BenchmarkParse parses the two large shipped apps; MB/s is source
// bytes over parse time, lexing included.
func BenchmarkParse(b *testing.B) {
	for _, c := range []struct{ name, src string }{
		{"BarnesHut", src.BarnesHut},
		{"Water", src.Water},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(c.name+".mc", c.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
