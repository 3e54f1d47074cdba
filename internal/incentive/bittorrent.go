package incentive

import (
	"slices"

	"repro/internal/algo"
)

// bitTorrent is the reciprocity/altruism hybrid (Section III-A): a fixed
// fraction 1−α_BT of upload decisions go to the top n_BT contributors from
// the previous timeslot (tit-for-tat), and the remaining α_BT go to random
// neighbors (optimistic unchoking), which is what bootstraps newcomers.
// This mirrors the paper's simulation setup: "users upload to random
// neighbors with a 20% probability, and otherwise to neighbors with the
// highest contributions."
type bitTorrent struct {
	params     Params
	roundStart float64

	// ranked holds every peer with a positive contribution window, kept
	// sorted by (contribution desc, id asc) — the tit-for-tat ranking.
	// Weights change only on OnReceived (one entry bubbles up) and on the
	// round rotation (full re-sort), so each upload decision walks the
	// prefix of an already-ranked list instead of gathering and sorting
	// candidates from scratch.
	ranked []contribRecord

	top []PeerID // per-decision top-n_BT id slice, reused
}

var _ Strategy = (*bitTorrent)(nil)

func newBitTorrent(p Params) *bitTorrent {
	return &bitTorrent{params: p}
}

func (*bitTorrent) Algorithm() algo.Algorithm { return algo.BitTorrent }

// compareRecordDesc is the tit-for-tat ranking: blended contribution
// descending, ID ascending as the tiebreak — a strict total order, so the
// ranked list has exactly one valid arrangement and incremental maintenance
// (bubbling, re-sorting) cannot diverge from a from-scratch sort.
func compareRecordDesc(x, y contribRecord) int {
	cx, cy := x.cur+x.prev, y.cur+y.prev
	switch {
	case cx > cy:
		return -1
	case cx < cy:
		return 1
	case x.id < y.id:
		return -1
	case x.id > y.id:
		return 1
	}
	return 0
}

// rotate advances the contribution window when a round has elapsed: each
// entry's current total becomes its previous one, entries left with nothing
// are dropped (they can never be ranked), and the survivors are re-ranked
// under their new weights.
func (b *bitTorrent) rotate(now float64) {
	if now-b.roundStart < b.params.RoundSeconds {
		return
	}
	out := b.ranked[:0]
	for _, r := range b.ranked {
		if r.cur != 0 {
			out = append(out, contribRecord{id: r.id, prev: r.cur})
		}
	}
	b.ranked = out
	slices.SortFunc(b.ranked, compareRecordDesc)
	b.roundStart = now
}

func (b *bitTorrent) NextReceiver(view NodeView) PeerID {
	b.rotate(view.Now())
	// Whether anyone wants decides the draw; only the optimistic branch
	// needs the full list.
	if !anyWanting(view) {
		return NoPeer
	}
	if view.RNG().Float64() < b.params.AlphaBT {
		// Optimistic unchoke: uniformly random interested neighbor.
		return randomPeer(view.RNG(), wantingNeighbors(view))
	}
	// Tit-for-tat: serve one of the top n_BT interested contributors. The
	// ranked list is already in (contribution desc, id asc) order, so the
	// top set is the first n_BT entries that pass the interest filter —
	// identical to sorting the interested contributors per decision. If
	// nobody has contributed, this share of bandwidth idles — newcomers are
	// reached only through the optimistic branch, which is what makes
	// BitTorrent's bootstrapping slower than altruism's (Table II).
	top := b.top[:0]
	for i := range b.ranked {
		if id := b.ranked[i].id; view.WantsFromMe(id) {
			top = append(top, id)
			if len(top) == b.params.NBT {
				break
			}
		}
	}
	b.top = top
	return randomPeer(view.RNG(), top)
}

func (b *bitTorrent) OnSent(NodeView, PeerID, float64) {}

func (b *bitTorrent) OnReceived(view NodeView, from PeerID, bytes float64) {
	b.rotate(view.Now())
	i := len(b.ranked)
	for j := range b.ranked {
		if b.ranked[j].id == from {
			i = j
			break
		}
	}
	if i == len(b.ranked) {
		b.ranked = append(b.ranked, contribRecord{id: from, cur: bytes})
	} else {
		b.ranked[i].cur += bytes
	}
	// The entry's weight grew, so it can only move toward the front.
	for i > 0 && compareRecordDesc(b.ranked[i], b.ranked[i-1]) < 0 {
		b.ranked[i], b.ranked[i-1] = b.ranked[i-1], b.ranked[i]
		i--
	}
}

func (b *bitTorrent) Forget(peer PeerID) {
	for j := range b.ranked {
		if b.ranked[j].id == peer {
			b.ranked = slices.Delete(b.ranked, j, j+1)
			return
		}
	}
}
