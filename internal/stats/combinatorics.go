// Package stats provides the numerical substrate for the incentive-mechanism
// analysis and simulator: combinatorics for the piece-availability model,
// summary statistics, quantiles, fairness indices, time series, and
// deterministic random-number helpers.
//
// Everything in this package is allocation-conscious and safe for concurrent
// use unless a type documents otherwise.
package stats

import (
	"fmt"
	"math"
)

// LogFactorial returns ln(n!) computed via the log-gamma function.
// It panics if n is negative, since a negative factorial indicates a
// programming error in a caller rather than a recoverable condition.
func LogFactorial(n int) float64 {
	if n < 0 {
		panic(fmt.Sprintf("stats: LogFactorial of negative %d", n))
	}
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg
}

// LogBinomial returns ln(C(n, k)). It returns math.Inf(-1) when the
// coefficient is zero (k < 0 or k > n), matching the convention that
// exp(LogBinomial) == Binomial exactly in the degenerate cases.
func LogBinomial(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	return LogFactorial(n) - LogFactorial(k) - LogFactorial(n-k)
}

// Binomial returns C(n, k) as a float64. Values overflow to +Inf for very
// large arguments; callers that only need ratios should use LogBinomial.
func Binomial(n, k int) float64 {
	return math.Exp(LogBinomial(n, k))
}

// BinomialRatio returns C(n1, k1) / C(n2, k2) computed in log space so that
// the ratio stays finite even when the individual coefficients overflow.
// A zero numerator yields 0; a zero denominator yields +Inf (or NaN if both
// are zero), mirroring IEEE division.
func BinomialRatio(n1, k1, n2, k2 int) float64 {
	num := LogBinomial(n1, k1)
	den := LogBinomial(n2, k2)
	if math.IsInf(num, -1) && math.IsInf(den, -1) {
		return math.NaN()
	}
	if math.IsInf(num, -1) {
		return 0
	}
	if math.IsInf(den, -1) {
		return math.Inf(1)
	}
	return math.Exp(num - den)
}

// Pow1mXN returns (1-x)^n computed stably in log space for x in [0, 1].
// For x == 1 it returns 0 (for n > 0) and 1 (for n == 0).
func Pow1mXN(x float64, n float64) float64 {
	switch {
	case n == 0:
		return 1
	case x >= 1:
		return 0
	case x <= 0:
		return 1
	default:
		return math.Exp(n * math.Log1p(-x))
	}
}
