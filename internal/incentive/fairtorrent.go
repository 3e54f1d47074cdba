package incentive

import (
	"math/bits"

	"repro/internal/algo"
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
	deficit deficitTable // uploaded − received, per real peer
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
		d := f.deficit.get(p)
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
		*f.deficit.at(to) += bytes
	}
}

func (f *fairTorrent) OnReceived(_ NodeView, from PeerID, bytes float64) {
	if from >= 0 {
		*f.deficit.at(from) -= bytes
	}
}

// Forget zeroes peer's deficit, which is what an unknown peer reads as.
func (f *fairTorrent) Forget(peer PeerID) {
	if len(f.deficit.slots) > 0 {
		f.deficit.probe(uint64(peer) + 1).deficit = 0
	}
}

// deficitTable maps real peer IDs to deficits: open addressing with linear
// probing over a power-of-two array of (id, deficit) pairs, at most half
// full. It is read once per candidate per decision, where a probe into one
// small array beats a Go map access. Entries are never removed (a forgotten
// peer reads 0 either way), so the table is bounded by the peers seen, not
// by the largest ID: a hostile wire ID of 2³¹−1 costs one slot.
type deficitTable struct {
	slots []deficitSlot
	shift uint // 64 − log2(len(slots)): the hash keeps the product's top bits
	used  int
}

// deficitSlot is one (id, deficit) pair. An empty slot has key 0 and
// deficit 0, so a probe that ends on one reads an unknown peer's deficit.
type deficitSlot struct {
	key     uint64 // the peer ID plus one
	deficit float64
}

// probe returns key's slot, or the empty slot where it would go; the table
// must not be empty. The first probe is Fibonacci hashing, which spreads
// the simulator's dense IDs evenly.
func (t *deficitTable) probe(key uint64) *deficitSlot {
	mask := uint64(len(t.slots) - 1)
	i := key * 0x9E3779B97F4A7C15 >> t.shift
	for t.slots[i].key != key && t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return &t.slots[i]
}

// get returns id's deficit, 0 if never stored.
func (t *deficitTable) get(id PeerID) float64 {
	if len(t.slots) == 0 {
		return 0
	}
	return t.probe(uint64(id) + 1).deficit
}

// at returns id's deficit, storing a zero deficit first if id is new.
func (t *deficitTable) at(id PeerID) *float64 {
	if 2*(t.used+1) > len(t.slots) {
		t.grow()
	}
	key := uint64(id) + 1
	s := t.probe(key)
	if s.key == 0 {
		s.key = key
		t.used++
	}
	return &s.deficit
}

// grow doubles the table (to 16 slots from empty) and re-places every entry.
func (t *deficitTable) grow() {
	old := t.slots
	n := max(16, 2*len(old))
	t.slots = make([]deficitSlot, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.key != 0 {
			*t.probe(s.key) = s
		}
	}
}
