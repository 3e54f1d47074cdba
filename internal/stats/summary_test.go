package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 {
		t.Fatalf("N = %d, want 5", s.N)
	}
	if !almostEqual(s.Mean, 3, 1e-12) {
		t.Errorf("Mean = %g, want 3", s.Mean)
	}
	if !almostEqual(s.Median, 3, 1e-12) {
		t.Errorf("Median = %g, want 3", s.Median)
	}
	if s.Min != 1 || s.Max != 5 {
		t.Errorf("Min,Max = %g,%g want 1,5", s.Min, s.Max)
	}
	if !almostEqual(s.Stddev, math.Sqrt(2), 1e-12) {
		t.Errorf("Stddev = %g, want sqrt(2)", s.Stddev)
	}
	if !almostEqual(s.Stderr, math.Sqrt(2)/math.Sqrt(5), 1e-12) {
		t.Errorf("Stderr = %g, want sqrt(2)/sqrt(5)", s.Stderr)
	}
}

func TestSummarizeStderrSingleSample(t *testing.T) {
	// One sample: no spread, zero standard error.
	s := Summarize([]float64{42})
	if s.Stderr != 0 || s.Stddev != 0 {
		t.Errorf("single-sample Stderr,Stddev = %g,%g want 0,0", s.Stderr, s.Stddev)
	}
}

func TestSummarizeEmptyAndNaN(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty N = %d", s.N)
	}
	s := Summarize([]float64{math.NaN(), 7, math.NaN()})
	if s.N != 1 || s.Mean != 7 {
		t.Errorf("NaN-skipping summary = %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Quantile(xs, 0); got != 10 {
		t.Errorf("q0 = %g", got)
	}
	if got := Quantile(xs, 1); got != 40 {
		t.Errorf("q1 = %g", got)
	}
	if got := Quantile(xs, 0.5); !almostEqual(got, 25, 1e-12) {
		t.Errorf("q0.5 = %g, want 25", got)
	}
	if got := Quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %g, want NaN", got)
	}
	if got := Quantile(xs, 1.5); !math.IsNaN(got) {
		t.Errorf("out-of-range q = %g, want NaN", got)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q1 := float64(a%101) / 100
		q2 := float64(b%101) / 100
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return Quantile(xs, q1) <= Quantile(xs, q2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJainIndexBounds(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("equal allocations = %g, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("single winner = %g, want 0.25", got)
	}
	if got := JainIndex(nil); !math.IsNaN(got) {
		t.Errorf("empty = %g, want NaN", got)
	}
	if got := JainIndex([]float64{0, 0}); !math.IsNaN(got) {
		t.Errorf("all zero = %g, want NaN", got)
	}
}

func TestJainIndexRangeProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		anyPos := false
		for i, r := range raw {
			xs[i] = float64(r)
			if r > 0 {
				anyPos = true
			}
		}
		if !anyPos {
			return true
		}
		j := JainIndex(xs)
		lo := 1/float64(len(xs)) - 1e-12
		return j >= lo && j <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanSum(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g", got)
	}
	if got := Mean(nil); !math.IsNaN(got) {
		t.Errorf("Mean(nil) = %g, want NaN", got)
	}
	if got := Sum([]float64{1.5, 2.5}); got != 4 {
		t.Errorf("Sum = %g", got)
	}
}
