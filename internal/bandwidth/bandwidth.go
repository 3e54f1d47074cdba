// Package bandwidth models peer upload capacities for the swarm simulator:
// heterogeneous capacity classes, slot-based transfer timing, and the
// capacity-distribution invariant the paper's analysis assumes
// (Uᵢ ≤ Σ_{j≠i} Uⱼ, Section IV).
package bandwidth

import (
	"errors"
	"fmt"
	"math/rand"
)

// Class is one upload-capacity tier with a population weight.
type Class struct {
	Name   string  `json:"name"`
	Rate   float64 `json:"rate"`   // bytes per second
	Weight float64 `json:"weight"` // relative population share
}

// Distribution is a weighted mix of capacity classes.
type Distribution struct {
	Classes []Class `json:"classes"`
}

// DefaultDistribution reflects the four-tier access-link mix common in the
// BitTorrent measurement literature, scaled so the median peer uploads
// ~1 Mbit/s. The paper does not publish its capacity mix; DESIGN.md records
// this substitution.
func DefaultDistribution() Distribution {
	const kbps = 1000.0 / 8 // bytes/s per kbit/s
	return Distribution{Classes: []Class{
		{Name: "dsl-slow", Rate: 256 * kbps, Weight: 0.2},
		{Name: "dsl", Rate: 512 * kbps, Weight: 0.3},
		{Name: "cable", Rate: 1024 * kbps, Weight: 0.3},
		{Name: "fiber", Rate: 4096 * kbps, Weight: 0.2},
	}}
}

// Validate checks the distribution for use in a simulation.
func (d Distribution) Validate() error {
	if len(d.Classes) == 0 {
		return errors.New("bandwidth: no classes")
	}
	var total float64
	for _, c := range d.Classes {
		if c.Rate <= 0 {
			return fmt.Errorf("bandwidth: class %q rate %g must be positive", c.Name, c.Rate)
		}
		if c.Weight < 0 {
			return fmt.Errorf("bandwidth: class %q negative weight", c.Name)
		}
		total += c.Weight
	}
	if total <= 0 {
		return errors.New("bandwidth: zero total weight")
	}
	return nil
}

// Sample draws n capacities from the distribution. The returned slice is in
// draw order (callers sort if they need the paper's U₁ ≥ … ≥ U_N ordering).
func (d Distribution) Sample(rng *rand.Rand, n int) ([]float64, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	var total float64
	for _, c := range d.Classes {
		total += c.Weight
	}
	out := make([]float64, n)
	for i := range out {
		target := rng.Float64() * total
		var acc float64
		for _, c := range d.Classes {
			acc += c.Weight
			if target < acc {
				out[i] = c.Rate
				break
			}
		}
		if out[i] == 0 {
			out[i] = d.Classes[len(d.Classes)-1].Rate
		}
	}
	return out, nil
}

// CheckBalance verifies the paper's Section IV assumption that no user holds
// a disproportionate share of total capacity: Uᵢ ≤ Σ_{j≠i} Uⱼ for all i.
// It returns the first violating index, or -1 if the assumption holds.
func CheckBalance(capacities []float64) int {
	var total float64
	for _, u := range capacities {
		total += u
	}
	for i, u := range capacities {
		if u > total-u {
			return i
		}
	}
	return -1
}

// Allocator models one peer's upload link divided into a fixed number of
// concurrent slots. A transfer on one slot proceeds at rate Rate/Slots, so a
// piece of b bytes takes b·Slots/Rate seconds. This matches the equal-split
// assumption behind the paper's Table I rates.
type Allocator struct {
	Rate  float64
	Slots int
	busy  int
}

// NewAllocator returns an allocator with the given link rate and slot count.
// It panics on non-positive arguments (construction-time programming error).
func NewAllocator(rate float64, slots int) *Allocator {
	if rate <= 0 || slots <= 0 {
		panic(fmt.Sprintf("bandwidth: NewAllocator(%g, %d)", rate, slots))
	}
	return &Allocator{Rate: rate, Slots: slots}
}

// Free returns the number of idle slots.
func (a *Allocator) Free() int { return a.Slots - a.busy }

// Acquire takes one slot and returns the transfer duration for a payload of
// size bytes. It returns ok=false when all slots are busy.
func (a *Allocator) Acquire(size float64) (duration float64, ok bool) {
	if a.busy >= a.Slots {
		return 0, false
	}
	a.busy++
	return size * float64(a.Slots) / a.Rate, true
}

// Release returns one slot. Releasing with no slot held panics: it indicates
// unbalanced Acquire/Release bookkeeping.
func (a *Allocator) Release() {
	if a.busy <= 0 {
		panic("bandwidth: Release without Acquire")
	}
	a.busy--
}
