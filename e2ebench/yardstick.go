package main

// The yardstick: a fixed piece of work that depends on nothing in the
// repository, read once per measurement round. The reference box is a
// shared 2-vCPU guest whose speed on memory-heavy code drifts from
// minute to minute — by ±10-15 % on a good day, by ±25 % on a bad one —
// and the drift is the same for every series in a run (identical runs
// moved together: a run whose compiles were 20 % slow had native runs
// and requests 20 % slow). How long the yardstick takes is a reading of
// that common factor; dividing a run's timings by it took the spread of
// ten identical runs from 20-39 % to 5-17 % on the bad day.

import (
	"fmt"
	"go/format"
	"strings"
	"time"
)

// yardstickNominalMS is the yardstick's reading on the reference box in
// its usual state. It only fixes the scale of corrected timings; two
// commits measured on one machine share it.
const yardstickNominalMS = 9.0

type yardstick struct {
	next []uint32 // one random cycle through 16 MB: memory latency
	pos  uint32
	tab  []uint64 // 32 KB, cache-resident: core throughput
	src  []byte   // Go source for go/format: allocation, pointers, branches
}

func newYardstick() *yardstick {
	const n = 4 << 20
	y := &yardstick{next: make([]uint32, n), tab: make([]uint64, 1<<12)}
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	s := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		j := int(s % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < n; i++ {
		y.next[perm[i]] = perm[(i+1)%n]
	}
	var b strings.Builder
	b.WriteString("package p\n")
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&b, "func f%d(a, b int, s []int) int {\n\tfor i := range s {\n\t\tif s[i]%%%d == 0 {\n\t\t\ta += b * s[i]\n\t\t} else {\n\t\t\tb -= a + %d\n\t\t}\n\t}\n\treturn a*%d + b\n}\n", i, i+2, i, i+3)
	}
	y.src = []byte(b.String())
	return y
}

// read does the work once and returns how long it took, in ms.
func (y *yardstick) read() float64 {
	t0 := time.Now()
	p := y.pos
	for i := 0; i < 30000; i++ {
		p = y.next[p]
	}
	y.pos = p
	var acc uint64
	for r := 0; r < 150; r++ {
		for i := range y.tab {
			y.tab[i] = y.tab[i]*6364136223846793005 + uint64(i) + acc
			acc ^= y.tab[(i*7+r)&(len(y.tab)-1)]
		}
	}
	y.tab[0] += acc
	if _, err := format.Source(y.src); err != nil {
		panic(err) // the source is a constant of this file
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
