package analysis

import (
	"errors"
	"math"

	"repro/internal/stats"
)

// ReputationEquilibrium evaluates Proposition 3: the fairness and efficiency
// of a reputation system once reputations rᵢ have locked in, which may be
// decoupled from capacities Uᵢ (e.g., a high-capacity user stuck with a low
// reputation from a slow start). User i downloads the share rᵢ/Σr of the
// swarm's bandwidth (Eq. 9) and uploads the share Uᵢ/ΣU, and those shares
// go through Eq. 3 and Eq. 2:
//
// F  = (1/N) Σᵢ |log( rᵢ·ΣU / (Uᵢ·Σr) )|
// E  = Σᵢ Σr / (N·rᵢ)
//
// (Proposition 3's printed F omits the 1/N normalization that Eq. 3
// defines; the mean form is used so values are comparable across N.) A user
// with a zero reputation never downloads, so F and E are both +Inf.
func ReputationEquilibrium(reputations, capacities []float64) (fairness, efficiency float64, err error) {
	if len(reputations) != len(capacities) || len(reputations) == 0 {
		return 0, 0, errors.New("analysis: reputations and capacities must be same nonzero length")
	}
	sumR := stats.Sum(reputations)
	sumU := stats.Sum(capacities)
	if sumR <= 0 || sumU <= 0 {
		return 0, 0, errors.New("analysis: total reputation and capacity must be positive")
	}

	peers := make([]stats.Peer, len(reputations))
	for i, ri := range reputations {
		ui := capacities[i]
		if ri <= 0 || ui <= 0 {
			return math.Inf(1), math.Inf(1), nil
		}
		peers[i] = stats.Peer{Uploaded: ui / sumU, Downloaded: ri / sumR}
	}
	return stats.Fairness(peers), Efficiency(peers), nil
}

// ProportionalReputations returns reputations proportional to capacities —
// the well-mixed equilibrium under which Proposition 3 reduces to perfect
// fairness (F = 0).
func ProportionalReputations(capacities []float64) []float64 {
	out := make([]float64, len(capacities))
	copy(out, capacities)
	return out
}

// SkewedReputations returns capacities' proportional reputations with user
// idx's reputation multiplied by factor, modelling the slow-start scenario
// Proposition 3 discusses (moderate bandwidth, depressed reputation).
func SkewedReputations(capacities []float64, idx int, factor float64) []float64 {
	out := ProportionalReputations(capacities)
	if idx >= 0 && idx < len(out) {
		out[idx] *= factor
	}
	return out
}
