package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples a percentile needs beyond it: a
// p99 from 500 samples rests on 5 and is refused.
const minTail = 10

// Percentile returns the p-th percentile (0 < p < 100) of xs by
// nearest rank, with the number of samples it rests on. It refuses a
// percentile with fewer than minTail samples beyond it, so a tail
// figure is never printed from a handful of requests.
func Percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%v of no samples", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// Median is the 50th percentile; it needs at least 2*minTail samples.
func Median(xs []float64) (float64, error) { return Percentile(xs, 50) }

// ratio divides, reading 0 when nothing was counted below.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
