package stats

import "testing"

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rng := NewRNG(3)
	got := SampleWithoutReplacement(rng, 10, 4)
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	seen := make(map[int]bool, len(got))
	for _, idx := range got {
		if idx < 0 || idx >= 10 {
			t.Errorf("index %d out of range", idx)
		}
		if seen[idx] {
			t.Errorf("duplicate index %d", idx)
		}
		seen[idx] = true
	}
	if got := SampleWithoutReplacement(rng, 3, 10); len(got) != 3 {
		t.Errorf("k>n returned %d items, want 3", len(got))
	}
	if got := SampleWithoutReplacement(rng, 0, 5); got != nil {
		t.Errorf("n=0 returned %v", got)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	rng := NewRNG(5)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	Shuffle(rng, xs)
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Errorf("shuffle changed contents: sum %d != %d", got, sum)
	}
}

func TestExponentialMean(t *testing.T) {
	rng := NewRNG(11)
	var sum float64
	const trials = 100000
	for i := 0; i < trials; i++ {
		sum += Exponential(rng, 2.5)
	}
	mean := sum / trials
	if mean < 2.4 || mean > 2.6 {
		t.Errorf("empirical mean %.3f, want ~2.5", mean)
	}
}
