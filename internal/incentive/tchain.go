package incentive

import (
	"repro/internal/algo"
)

// tChain is the reciprocity/reputation hybrid (Section III-A), modelled on
// T-Chain [8]: every received piece creates an obligation to reciprocate —
// directly back to the sender when the sender needs one of our pieces, or
// indirectly to a third peer otherwise (which is how piece-less newcomers
// bootstrap: they forward the piece they just received). Peers may also
// *initiate* exchanges opportunistically ("opportunistic seeding",
// Lemma 2's proof), because initiated uploads are themselves protected by
// the reciprocation requirement.
//
// The encryption-and-key-release enforcement (upload first, decrypt after
// reciprocating) is environment-level: the simulator and the live node
// implement it via internal/tchain and withhold credit from peers that
// renege. This strategy implements the traffic-shaping side: obligations
// take absolute priority over opportunistic uploads.
type tChain struct {
	// obligations is the FIFO reciprocation queue: obligations[head:] are
	// pending, oldest first. Serving one advances head, and oblige slides
	// the pending tail back to the front once head reaches half the slice,
	// so the queue reuses its storage instead of re-growing it.
	obligations []PeerID
	head        int
}

var _ Strategy = (*tChain)(nil)

func newTChain() *tChain { return &tChain{} }

func (*tChain) Algorithm() algo.Algorithm { return algo.TChain }

func (t *tChain) NextReceiver(view NodeView) PeerID {
	// Serve reciprocation obligations first. Targets that left the swarm or
	// no longer need anything are dropped — their exchange completed
	// through another path.
	for t.head < len(t.obligations) {
		target := t.obligations[t.head]
		t.head++
		if view.WantsFromMe(target) {
			return target
		}
	}
	// Opportunistic seeding: initiate toward a uniformly random interested
	// neighbor. Uniform spreading is what lets T-Chain approach altruism's
	// exchange probability as the swarm grows (Corollary 2) — the
	// fairness comes from the reciprocation obligations, and the
	// reputation component from the environment's distrust of peers that
	// renege on them, not from biasing initiations.
	return randomPeer(view.RNG(), wantingNeighbors(view))
}

func (t *tChain) OnSent(NodeView, PeerID, float64) {}

func (t *tChain) OnReceived(view NodeView, from PeerID, bytes float64) {
	// Create the reciprocation obligation: direct when the sender needs one
	// of our pieces, otherwise indirect toward a random neighbor that does
	// (after this receive we hold at least one piece, so even a newcomer
	// can participate once anyone needs that piece).
	if view.WantsFromMe(from) {
		t.oblige(from)
	} else if w := randomPeer(view.RNG(), wantingNeighborsExcept(view, from)); w != NoPeer {
		t.oblige(w)
	}
	// Cap the queue: an obligation backlog longer than the neighborhood
	// means we are upload-bound; dropping the oldest keeps memory bounded
	// without changing behaviour (they would be stale by service time).
	if maxQ := 4 * len(view.Neighbors()); maxQ > 0 && len(t.obligations)-t.head > maxQ {
		t.head = len(t.obligations) - maxQ
	}
}

// oblige queues an obligation to p behind the pending ones. A slide moves
// no more entries than were served or dropped since the last one, so it
// costs O(1) amortized.
func (t *tChain) oblige(p PeerID) {
	if t.head > 0 && 2*t.head >= len(t.obligations) {
		n := copy(t.obligations, t.obligations[t.head:])
		t.obligations, t.head = t.obligations[:n], 0
	}
	t.obligations = append(t.obligations, p)
}

func (t *tChain) Forget(peer PeerID) {
	kept := t.obligations[:0]
	for _, o := range t.obligations[t.head:] {
		if o != peer {
			kept = append(kept, o)
		}
	}
	t.obligations, t.head = kept, 0
}

// wantingNeighborsExcept filters wantingNeighbors to exclude one peer.
func wantingNeighborsExcept(view NodeView, except PeerID) []PeerID {
	wanting := wantingNeighbors(view)
	out := wanting[:0]
	for _, p := range wanting {
		if p != except {
			out = append(out, p)
		}
	}
	return out
}
