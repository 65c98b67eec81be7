package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0 ≤ q ≤ 1; 0 is the minimum) of an
// ascending slice by
// the nearest-rank rule: the smallest sample with at least q of the
// samples at or below it. It is always an observed value, so a tail
// percentile of a small series stays inside the slowest class of
// operations and is never blended with the class below it. An empty
// slice yields NaN so a missing measurement can never pass for a
// number.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	return asc[min(max(i, 0), len(asc)-1)]
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// geomean is the geometric mean; it is NaN unless every value is
// positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// tailPerMille are the candidates for the reported tail (p90, p95,
// p99, p99.9), ascending, in thousandths so the sample arithmetic is
// exact.
var tailPerMille = []int{900, 950, 990, 999}

// tailPercentile returns the highest candidate percentile that still
// has at least ten of n samples beyond it, or 0.5 when none has (the
// median is then all that can be said).
func tailPercentile(n int) float64 {
	best := 0.5
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= 10*1000 {
			best = float64(pm) / 1000
		}
	}
	return best
}

// summary is what is printed for one timing series.
type summary struct {
	n                   int
	min, q1, median, q3 float64
	tailP, tailTime     float64
}

func summarize(xs []float64) summary {
	asc := sorted(xs)
	p := tailPercentile(len(asc))
	return summary{
		n:   len(asc),
		min: quantile(asc, 0), q1: quantile(asc, 0.25), median: quantile(asc, 0.5), q3: quantile(asc, 0.75),
		tailP: p, tailTime: quantile(asc, p),
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
