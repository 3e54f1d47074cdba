package incentive

import (
	"repro/internal/algo"
)

// reciprocity is the pure direct-reciprocity mechanism: a user uploads only
// to the neighbor that has contributed the most to it, and only while it
// still owes that neighbor data. No user can *initiate* an exchange, which
// is exactly why the paper proves the mechanism deadlocks (Lemma 2: zero
// upload utilization) — uploads require prior downloads, which require
// prior uploads.
//
// That deadlock is also the mechanism's common case at run time — in the
// paper's Figure 4 every peer polls to the horizon with the seeder as its
// only creditor — so the strategy counts the neighbors it could repay and
// answers an idle decision from the count, without asking the view anything.
type reciprocity struct {
	received map[PeerID]float64 // bytes received from each peer
	sent     map[PeerID]float64 // bytes sent to each peer
	// owing counts the real peers (ID >= 0) we still owe, kept in step by
	// every change to the two maps. Pseudo-peers are left out because they
	// never appear in Neighbors(): every simulated peer owes the seeder
	// forever, and counting it would make every decision look busy.
	owing int
}

var _ Strategy = (*reciprocity)(nil)

func newReciprocity() *reciprocity {
	return &reciprocity{
		received: make(map[PeerID]float64),
		sent:     make(map[PeerID]float64),
	}
}

func (*reciprocity) Algorithm() algo.Algorithm { return algo.Reciprocity }

func (r *reciprocity) NextReceiver(view NodeView) PeerID {
	if r.owing == 0 {
		return NoPeer
	}
	// Candidates: neighbors we owe data to (received > sent), i.e., whose
	// gift we can reciprocate. Among them, the one that has contributed
	// the most (the simulation setup in Section V-A).
	best := NoPeer
	var bestContribution float64
	for _, n := range view.Neighbors() {
		if !r.owes(n) || !view.WantsFromMe(n) {
			continue
		}
		if r.received[n] > bestContribution {
			best, bestContribution = n, r.received[n]
		}
	}
	return best
}

// owes reports whether peer has given us more than we have given back.
func (r *reciprocity) owes(peer PeerID) bool {
	return r.received[peer]-r.sent[peer] > 0
}

// recount brings owing up to date after peer's books changed; owed is what
// owes(peer) answered before the change.
func (r *reciprocity) recount(peer PeerID, owed bool) {
	if peer < 0 {
		return
	}
	switch now := r.owes(peer); {
	case now && !owed:
		r.owing++
	case owed && !now:
		r.owing--
	}
}

func (r *reciprocity) OnSent(_ NodeView, to PeerID, bytes float64) {
	owed := r.owes(to)
	r.sent[to] += bytes
	r.recount(to, owed)
}

func (r *reciprocity) OnReceived(_ NodeView, from PeerID, bytes float64) {
	owed := r.owes(from)
	r.received[from] += bytes
	r.recount(from, owed)
}

func (r *reciprocity) Forget(peer PeerID) {
	owed := r.owes(peer)
	delete(r.received, peer)
	delete(r.sent, peer)
	r.recount(peer, owed)
}
