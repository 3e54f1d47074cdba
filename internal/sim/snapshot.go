package sim

import (
	"repro/internal/stats"
)

// AvailabilitySnapshot captures the swarm's piece-availability state at one
// instant: the distribution of per-peer piece counts and the empirical
// pairwise exchange feasibility, sampled over random ordered pairs of
// active peers. The validate-availability experiment compares these
// against the paper's Eq. 4–7 closed forms evaluated on the same
// piece-count distribution.
type AvailabilitySnapshot struct {
	// At is the virtual time the snapshot was taken.
	At float64 `json:"at"`
	// PieceCounts holds each active peer's piece count.
	PieceCounts []int `json:"piece_counts"`
	// PiAltruism is the empirical probability that a random receiver needs
	// at least one piece a random sender holds (Corollary 2's π_A).
	PiAltruism float64 `json:"pi_altruism"`
	// PiDirect is the empirical probability that two random peers each
	// need something from the other (Eq. 4's π_DR).
	PiDirect float64 `json:"pi_direct"`
	// Pairs is the number of sampled ordered pairs.
	Pairs int `json:"pairs"`
}

// snapshotPairs is how many ordered pairs the snapshot samples.
const snapshotPairs = 4000

// takeSnapshot records the availability state at virtual time now.
func (s *Swarm) takeSnapshot(now float64) {
	active := s.actives // id-ascending, so the pair draws are reproducible
	snap := &AvailabilitySnapshot{At: now, PieceCounts: make([]int, len(active))}
	for i, p := range active {
		snap.PieceCounts[i] = p.have.Count()
	}
	if len(active) >= 2 {
		needHits, mutualHits := 0, 0
		for trial := 0; trial < snapshotPairs; trial++ {
			idx := stats.SampleWithoutReplacement(s.rng, len(active), 2)
			receiver, sender := active[idx[0]], active[idx[1]]
			needs := receiver.have.Needs(sender.have)
			if needs {
				needHits++
				if sender.have.Needs(receiver.have) {
					mutualHits++
				}
			}
		}
		snap.PiAltruism = float64(needHits) / snapshotPairs
		snap.PiDirect = float64(mutualHits) / snapshotPairs
		snap.Pairs = snapshotPairs
	}
	s.snapshot = snap
}

// Snapshot returns the availability snapshot taken at Config.SnapshotAt,
// or nil if none was requested or the swarm drained before that time.
func (r *Result) Snapshot() *AvailabilitySnapshot { return r.snapshot }
