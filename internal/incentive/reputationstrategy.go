package incentive

import (
	"repro/internal/algo"
	"repro/internal/reputation"
)

// reputationStrategy is the basic reputation mechanism (Section III-A):
// the probability of uploading to a neighbor is proportional to the total
// number of pieces that neighbor has uploaded to *anyone* (a global score,
// as in EigenTrust). A fraction α_R of decisions are altruistic uniform
// picks, which is how the mechanism bootstraps zero-reputation newcomers.
type reputationStrategy struct {
	params Params
	ledger *reputation.Ledger

	scratch []reputation.Scored // per-decision score cache, reused
}

var _ Strategy = (*reputationStrategy)(nil)

func newReputation(p Params, ledger *reputation.Ledger) *reputationStrategy {
	return &reputationStrategy{params: p, ledger: ledger}
}

func (*reputationStrategy) Algorithm() algo.Algorithm { return algo.Reputation }

func (r *reputationStrategy) NextReceiver(view NodeView) PeerID {
	wanting := wantingNeighbors(view)
	if len(wanting) == 0 {
		return NoPeer
	}
	rng := view.RNG()
	if rng.Float64() < r.params.AlphaR {
		// Altruistic bootstrap share.
		return randomPeer(rng, wanting)
	}
	// Reputation-weighted pick. If every interested neighbor has zero
	// reputation the tit-for-tat share idles, mirroring the slow
	// bootstrapping the paper derives in Table II. All candidates' scores
	// are read from the ledger under one lock; the accumulation order — and
	// thus the exact float arithmetic — is the candidates' order.
	ents := r.scratch[:0]
	for _, p := range wanting {
		ents = append(ents, reputation.Scored{Peer: int(p)})
	}
	r.scratch = ents
	r.ledger.Scores(ents)
	var total float64
	for _, e := range ents {
		total += e.Score
	}
	if total <= 0 {
		return NoPeer
	}
	target := rng.Float64() * total
	var acc float64
	for _, e := range ents {
		acc += e.Score
		if target < acc {
			return PeerID(e.Peer)
		}
	}
	return wanting[len(wanting)-1]
}

func (*reputationStrategy) OnSent(NodeView, PeerID, float64) {}

func (*reputationStrategy) OnReceived(NodeView, PeerID, float64) {}

func (r *reputationStrategy) Forget(peer PeerID) {
	// Global scores live in the ledger; nothing local to erase. The ledger
	// reset itself is driven by the environment (whitewashing model).
	_ = peer
}
