package main

import (
	"math"
	"sort"
)

func sorted(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// quartiles returns the first quartile, median and third quartile of vs as
// Python's statistics.quantiles(vs, n=4) computes them (the exclusive
// method), so a spread printed here is the one the driver computes. Fewer
// than two values have no spread: all three are the value itself (NaN for
// none).
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := sorted(vs)
	m := len(s)
	switch m {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(vs []float64) float64 {
	_, med, _ := quartiles(vs)
	return med
}

// percentile is the nearest-rank p-th percentile (0 < p <= 1) of vs.
func percentile(vs []float64, p float64) float64 {
	s := sorted(vs)
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}
