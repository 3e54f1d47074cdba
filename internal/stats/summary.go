package stats

import (
	"math"
	"sort"
)

// Summary holds descriptive statistics for a sample. Stderr is the
// standard error of the mean (Stddev/√N), the spread the replication
// runner reports as "mean ± stderr" across repeated seeded runs.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Stderr float64
	Min    float64
	Max    float64
	Median float64
	P10    float64
	P90    float64
}

// Summarize computes descriptive statistics over xs. NaN entries are skipped.
// An empty (or all-NaN) input yields a zero-valued Summary with N == 0.
func Summarize(xs []float64) Summary {
	clean := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			clean = append(clean, x)
		}
	}
	if len(clean) == 0 {
		return Summary{}
	}
	sort.Float64s(clean)

	var sum, sumSq float64
	for _, x := range clean {
		sum += x
		sumSq += x * x
	}
	n := float64(len(clean))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0 // guard against catastrophic cancellation
	}
	return Summary{
		N:      len(clean),
		Mean:   mean,
		Stddev: math.Sqrt(variance),
		Stderr: math.Sqrt(variance / n),
		Min:    clean[0],
		Max:    clean[len(clean)-1],
		Median: quantileSorted(clean, 0.5),
		P10:    quantileSorted(clean, 0.1),
		P90:    quantileSorted(clean, 0.9),
	}
}

// Quantile returns the q-quantile (q in [0,1]) of xs using linear
// interpolation between closest ranks. It copies and sorts its input.
// It returns NaN for empty input or q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum
}

// JainIndex returns Jain's fairness index (Σx)² / (n·Σx²) for nonnegative
// allocations xs. It is 1 when all allocations are equal and 1/n when one
// user receives everything. Returns NaN for empty input or an all-zero
// vector.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return math.NaN()
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
