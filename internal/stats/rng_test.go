package stats

import (
	"math/rand"
	"testing"
)

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

// TestOneInMatchesIntn runs OneIn and rng.Intn(n) == 0 on twin generators
// for every n from 1 to 5000 and a few beyond the table: same answer every
// time, and the generators still in step afterwards.
func TestOneInMatchesIntn(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	check := func(n int) {
		for i := 0; i < 40; i++ {
			if got, want := OneIn(a, n), b.Intn(n) == 0; got != want {
				t.Fatalf("n=%d draw %d: OneIn = %v, Intn(n) == 0 is %v", n, i, got, want)
			}
			if a.Int63() != b.Int63() {
				t.Fatalf("n=%d draw %d: generators out of step", n, i)
			}
		}
	}
	for n := 1; n <= 5000; n++ {
		check(n)
	}
	for _, n := range []int{oneInLimit - 1, oneInLimit, 100000, 1<<31 - 1, 1 << 31, 1<<40 + 3} {
		check(n)
	}
}

// scriptSource plays back fixed Int31 values (Int31 is Int63's top 31 bits).
type scriptSource struct {
	vals []int32
	read int
}

func (s *scriptSource) Int63() int64 {
	v := s.vals[s.read]
	s.read++
	return int64(v) << 32
}
func (s *scriptSource) Seed(int64) {}

// TestOneInRejection forces the branch random draws almost never reach: a
// draw above Intn's rejection bound is redrawn, by both, the same number of
// times. The scripts also put multiples of n right at the bound, where a
// wrong divisibility constant would show.
func TestOneInRejection(t *testing.T) {
	for _, n := range []int{3, 7, 1000, 4999, 5000, oneInLimit - 1} {
		bound := int32((1 << 31) - 1 - (1<<31)%uint32(n))
		top := bound / int32(n) * int32(n) // the largest multiple of n accepted
		for _, script := range [][]int32{
			{bound + 1, 1<<31 - 1, top},
			{bound + 1, top - 1},
			{1<<31 - 1, bound},
			{bound + 1, bound + 1, 0},
			{top - int32(n)},
		} {
			a := &scriptSource{vals: script}
			b := &scriptSource{vals: script}
			got, want := OneIn(rand.New(a), n), rand.New(b).Intn(n) == 0
			if got != want || a.read != b.read {
				t.Errorf("n=%d script %v: OneIn = %v after %d draws, Intn(n) == 0 is %v after %d",
					n, script, got, a.read, want, b.read)
			}
			if script[0] > bound && a.read < 2 {
				t.Errorf("n=%d script %v: a draw above the bound %d was accepted", n, script, bound)
			}
		}
	}
}
