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

// OneIn reports rng.Intn(n) == 0, drawing exactly what that call draws, so
// a reservoir sample that switches to it replays bit for bit. For n below
// oneInLimit it runs Intn's algorithm — one Int31, redrawn while above the
// rejection bound, then a divisibility test — with both of Intn's 32-bit
// divisions replaced by per-n constants: the bound, and c = ⌈2⁶⁴/n⌉, for
// n divides v exactly when v·c mod 2⁶⁴ ≤ c−1 (Lemire, Kaser and Kurz,
// "Faster Remainder by Direct Computation", 2019). Larger n, and n ≤ 0
// (which panics), go to Intn itself.
func OneIn(rng *rand.Rand, n int) bool {
	if n <= 0 || n >= oneInLimit {
		return rng.Intn(n) == 0
	}
	d := &oneInDivisors[n]
	v := rng.Int31()
	for v > d.bound {
		v = rng.Int31()
	}
	return uint64(v)*d.c <= d.c-1
}

// oneInLimit bounds the populations OneIn handles itself; it covers every
// swarm the simulator's benchmarks and figures run (5000 peers at most).
const oneInLimit = 1 << 13

// oneInDivisor holds, for one n, the largest Int31 that Intn(n) accepts and
// c = ⌈2⁶⁴/n⌉. For n = 1, c wraps to 0 and c−1 to the largest uint64, so
// the test reads "always", as Intn(1) == 0 does.
type oneInDivisor struct {
	c     uint64
	bound int32
}

var oneInDivisors [oneInLimit]oneInDivisor

func init() {
	for n := 1; n < oneInLimit; n++ {
		oneInDivisors[n] = oneInDivisor{
			c:     ^uint64(0)/uint64(n) + 1,
			bound: int32((1 << 31) - 1 - (1<<31)%uint32(n)),
		}
	}
}

// Shuffle permutes xs in place using rng.
func Shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// Exponential draws from an exponential distribution with the given mean.
func Exponential(rng *rand.Rand, mean float64) float64 {
	return rng.ExpFloat64() * mean
}
