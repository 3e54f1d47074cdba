// Package analysis implements the paper's closed-form performance model
// (Section IV): equilibrium download rates (Table I), the
// fairness–efficiency tradeoff (Lemma 1, Corollary 1), piece-exchange
// probabilities under imperfect availability (Eqs. 4–8, Propositions 2–3),
// flash-crowd bootstrap probabilities (Table II, Lemma 3, Proposition 4),
// and free-riding exposure (Table III).
//
// Where the published formulas contain evident typographical slips (noted
// inline), this package implements the mathematically consistent form and
// EXPERIMENTS.md records the discrepancy.
package analysis

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/algo"
	"repro/internal/stats"
)

// Scenario fixes the parameters of the paper's equilibrium analysis: N users
// with upload capacities U₁ ≥ … ≥ U_N, a seeder of capacity US, and the
// altruism shares of the two altruism hybrids.
type Scenario struct {
	// Capacities are the users' upload capacities, sorted descending
	// (the constructor sorts defensively).
	Capacities []float64
	// SeederRate is u_S, the seeder's upload capacity; every user receives
	// an expected u_S/N from the seeder.
	SeederRate float64
	// AlphaBT is the fraction of BitTorrent bandwidth used for optimistic
	// unchoking (the paper's α_BT, 0.2 in the experiments).
	AlphaBT float64
	// AlphaR is the fraction of reputation-system bandwidth reserved for
	// altruistic bootstrapping (the paper's α_R).
	AlphaR float64
	// NBT is n_BT, the number of users BitTorrent reciprocates with at a
	// time (unchoke slots).
	NBT int
}

// NewScenario validates and normalizes a scenario. Capacities are copied
// and sorted descending per the paper's indexing convention.
func NewScenario(capacities []float64, seederRate, alphaBT, alphaR float64, nBT int) (*Scenario, error) {
	if len(capacities) < 2 {
		return nil, errors.New("analysis: need at least 2 users")
	}
	for i, u := range capacities {
		if u <= 0 || math.IsNaN(u) || math.IsInf(u, 0) {
			return nil, fmt.Errorf("analysis: capacity[%d] = %g invalid", i, u)
		}
	}
	if seederRate < 0 {
		return nil, fmt.Errorf("analysis: seeder rate %g negative", seederRate)
	}
	if alphaBT < 0 || alphaBT > 1 || alphaR < 0 || alphaR > 1 {
		return nil, fmt.Errorf("analysis: alphas (%g, %g) outside [0,1]", alphaBT, alphaR)
	}
	if nBT < 1 || nBT >= len(capacities) {
		return nil, fmt.Errorf("analysis: nBT %d outside [1, N)", nBT)
	}
	sorted := make([]float64, len(capacities))
	copy(sorted, capacities)
	for i := 1; i < len(sorted); i++ { // insertion sort descending; N is small here
		for j := i; j > 0 && sorted[j] > sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return &Scenario{
		Capacities: sorted,
		SeederRate: seederRate,
		AlphaBT:    alphaBT,
		AlphaR:     alphaR,
		NBT:        nBT,
	}, nil
}

// N returns the number of users.
func (s *Scenario) N() int { return len(s.Capacities) }

// TotalCapacity returns Σᵢ Uᵢ.
func (s *Scenario) TotalCapacity() float64 { return stats.Sum(s.Capacities) }

// seederShare is u_S/N, the expected per-user seeder bandwidth.
func (s *Scenario) seederShare() float64 { return s.SeederRate / float64(s.N()) }

// UploadRates returns the equilibrium upload rates uᵢ under Lemma 2: every
// algorithm uses full capacity Uᵢ except reciprocity, where no user can
// initiate an exchange and all uploads are zero.
func (s *Scenario) UploadRates(a algo.Algorithm) []float64 {
	out := make([]float64, s.N())
	if a == algo.Reciprocity {
		return out
	}
	copy(out, s.Capacities)
	return out
}

// DownloadRates returns the equilibrium download rates dᵢ from Table I
// (download utilization plus the seeder share u_S/N), indexed like
// Capacities (descending capacity order).
func (s *Scenario) DownloadRates(a algo.Algorithm) []float64 {
	n := s.N()
	out := make([]float64, n)
	share := s.seederShare()
	total := s.TotalCapacity()

	switch a {
	case algo.Reciprocity:
		// Download utilization 0: nobody can initiate an exchange.
		for i := range out {
			out[i] = share
		}

	case algo.TChain, algo.FairTorrent:
		// dᵢ − u_S/N = Uᵢ: both hybrids equalize uploads and downloads.
		for i, u := range s.Capacities {
			out[i] = u + share
		}

	case algo.BitTorrent:
		// Tit-for-tat clusters peers of similar capacity (Fan et al. [10]):
		// peer i's reciprocal download is the mean capacity of its cluster
		// of n_BT+1 consecutive peers in sorted order, excluding itself.
		// (Table I's printed index range "mod(i,n_BT)" is a typographical
		// slip — it would make the cluster independent of i; the cited
		// source and Corollary 1's U_i ≈ U_{i+n_BT} condition imply
		// consecutive-block clustering, implemented here.)
		altShare := s.altruismTerm()
		for i := range out {
			cluster := i / (s.NBT + 1)
			lo := cluster * (s.NBT + 1)
			hi := min(lo+s.NBT+1, n)
			var sum float64
			count := 0
			for j := lo; j < hi; j++ {
				if j == i {
					continue
				}
				sum += s.Capacities[j]
				count++
			}
			var tft float64
			if count > 0 {
				// Each cluster partner uploads (1-α)U_j across n_BT slots.
				tft = (1 - s.AlphaBT) * sum / float64(s.NBT)
			}
			out[i] = tft + s.AlphaBT*altShare[i] + share
		}

	case algo.Reputation:
		// dᵢ − u_S/N = Uᵢ Σ_{j≠i} (1−α_R)U_j / Σ_{k≠j} U_k  +  α_R·avg.
		altShare := s.altruismTerm()
		for i, ui := range s.Capacities {
			var rep float64
			for j, uj := range s.Capacities {
				if j == i {
					continue
				}
				rep += (1 - s.AlphaR) * uj / (total - uj)
			}
			out[i] = ui*rep + s.AlphaR*altShare[i] + share
		}

	case algo.Altruism:
		for i, alt := range s.altruismTerm() {
			out[i] = alt + share
		}

	default:
		// Unknown algorithm: zero rates; callers validate algorithms upstream.
	}
	return out
}

// altruismTerm returns Σ_{k≠i} U_k / (N−1) for each i: the expected download
// rate from uniformly random altruistic uploads.
func (s *Scenario) altruismTerm() []float64 {
	total := s.TotalCapacity()
	out := make([]float64, s.N())
	denom := float64(s.N() - 1)
	for i, u := range s.Capacities {
		out[i] = (total - u) / denom
	}
	return out
}

// Records returns the closed form's per-user outcome under mechanism a over
// a unit horizon, indexed like Capacities: record i holds user i's capacity
// Uᵢ and its equilibrium rates as Uploaded uᵢ (Lemma 2) and Downloaded dᵢ
// (Table I). The model predicts rates, not instants, so Arrival is 0 and
// BootstrapAt and FinishAt are -1. A simulated run's Result.Peers has the
// same type, so the two compare field by field.
func (s *Scenario) Records(a algo.Algorithm) []stats.Peer {
	d, u := s.DownloadRates(a), s.UploadRates(a)
	out := make([]stats.Peer, s.N())
	for i := range out {
		out[i] = stats.Peer{ID: i, Capacity: s.Capacities[i], BootstrapAt: -1, FinishAt: -1,
			Uploaded: u[i], Downloaded: d[i], RawDown: d[i]}
	}
	return out
}

// Efficiency computes E = Σᵢ 1/(N·dᵢ) (Eq. 2) over the N records, dᵢ their
// Downloaded: the expected average download time for a unit-size file when,
// as in Records, dᵢ is a rate over a unit horizon. Lower is better. A record
// with a zero download rate makes E +Inf (that user never finishes),
// matching the paper's treatment of pure reciprocity with no seeder.
func Efficiency(peers []stats.Peer) float64 {
	n := float64(len(peers))
	var sum float64
	for _, p := range peers {
		if p.Downloaded <= 0 {
			return math.Inf(1)
		}
		sum += 1 / (n * p.Downloaded)
	}
	return sum
}

// OptimalDownloadRate returns Lemma 1's efficiency-optimal common download
// rate d* = ΣUᵢ/N + u_S/N.
func (s *Scenario) OptimalDownloadRate() float64 {
	return s.TotalCapacity()/float64(s.N()) + s.seederShare()
}

// OptimalEfficiency returns the Lemma 1 lower bound on E.
func (s *Scenario) OptimalEfficiency() float64 {
	return 1 / s.OptimalDownloadRate()
}

// Evaluate returns E (Eq. 2) and F (Eq. 3, stats.Fairness) of mechanism a's
// equilibrium records.
func (s *Scenario) Evaluate(a algo.Algorithm) (efficiency, fairness float64) {
	peers := s.Records(a)
	return Efficiency(peers), stats.Fairness(peers)
}
