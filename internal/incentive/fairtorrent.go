package incentive

import (
	"repro/internal/algo"
	"repro/internal/reputation"
	"repro/internal/stats"
)

// fairTorrent is the reputation/altruism hybrid (Section III-A): each user
// maintains a deficit counter per peer — bytes uploaded to that peer minus
// bytes received from it — as a local reputation score, and always uploads
// to the interested neighbor with the smallest (most negative) deficit.
// When every deficit is nonnegative, the pick falls on a zero-deficit peer
// (newcomers included), which is the altruistic component that bootstraps
// the swarm and, simultaneously, the exposure free-riders exploit
// (Table III: (1−ω)·ΣU).
type fairTorrent struct {
	deficit reputation.Table[float64] // uploaded − received, per real peer
}

var _ Strategy = (*fairTorrent)(nil)

func newFairTorrent() *fairTorrent { return &fairTorrent{} }

func (*fairTorrent) Algorithm() algo.Algorithm { return algo.FairTorrent }

func (f *fairTorrent) NextReceiver(view NodeView) PeerID {
	wanting := wantingNeighbors(view)
	if len(wanting) == 0 {
		return NoPeer
	}
	// Find the minimum deficit; sample uniformly among ties so zero-deficit
	// newcomers share the altruistic bandwidth evenly.
	rng := view.RNG()
	best := NoPeer
	bestDeficit := 0.0
	ties := 0
	for _, p := range wanting {
		d := f.deficit.Get(int(p))
		switch {
		case best == NoPeer || d < bestDeficit:
			best, bestDeficit, ties = p, d, 1
		case d == bestDeficit:
			ties++
			if stats.OneIn(rng, ties) {
				best = p
			}
		}
	}
	return best
}

// OnSent and OnReceived keep no books on pseudo-peers (the seeder): they
// never appear among the neighbors NextReceiver weighs.
func (f *fairTorrent) OnSent(_ NodeView, to PeerID, bytes float64) {
	if to >= 0 {
		*f.deficit.At(int(to)) += bytes
	}
}

func (f *fairTorrent) OnReceived(_ NodeView, from PeerID, bytes float64) {
	if from >= 0 {
		*f.deficit.At(int(from)) -= bytes
	}
}

// Forget zeroes peer's deficit, which is what an unknown peer reads as.
func (f *fairTorrent) Forget(peer PeerID) { f.deficit.Zero(int(peer)) }
