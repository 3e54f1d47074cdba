package stats

import (
	"math/rand"
)

// NewRNG returns a deterministic *rand.Rand seeded with seed. Every
// stochastic component in this repository takes an explicit RNG so that
// simulations replay bit-for-bit.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n). If k >= n it returns all n indices in shuffled order.
func SampleWithoutReplacement(rng *rand.Rand, n, k int) []int {
	if n <= 0 || k <= 0 {
		return nil
	}
	perm := rng.Perm(n)
	if k > n {
		k = n
	}
	return perm[:k]
}

// Shuffle permutes xs in place using rng.
func Shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// Exponential draws from an exponential distribution with the given mean.
func Exponential(rng *rand.Rand, mean float64) float64 {
	return rng.ExpFloat64() * mean
}
