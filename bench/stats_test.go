package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The expected quartiles are what Python's statistics.quantiles(vs, n=4)
// prints for the same lists: the driver computes its spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs          []float64
		q1, med, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 2, 8, 32},
	} {
		q1, med, q3 := quartiles(c.vs)
		if !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.vs, q1, med, q3, c.q1, c.med, c.q3)
		}
		if got := median(c.vs); !near(got, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.vs, got, c.med)
		}
	}
	if q1, med, q3 := quartiles(nil); !math.IsNaN(q1) || !math.IsNaN(med) || !math.IsNaN(q3) {
		t.Errorf("quartiles(nil) = %v %v %v, want NaNs", q1, med, q3)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vs := []float64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.91, 100}, {1, 100}, {0.01, 10}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile(nil) = %v, want NaN", got)
	}
}
