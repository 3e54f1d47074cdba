// Package incentive implements the six incentive mechanisms the paper
// compares (Section III): the basic reciprocity, altruism, and reputation
// algorithms, and the BitTorrent, FairTorrent, and T-Chain hybrids.
//
// A Strategy decides, each time its peer has a free upload slot, which
// neighbor should receive the next piece. Strategies observe their
// environment only through the NodeView interface, so the same
// implementations drive both the discrete-event swarm simulator
// (internal/sim) and the live TCP node (internal/node).
package incentive

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/algo"
	"repro/internal/reputation"
)

// PeerID identifies a peer within one swarm. Real peers have small dense
// non-negative IDs assigned by the environment. Negative IDs are pseudo-peers
// — NoPeer, and the simulator's origin server (sim.SeederID) — which may
// be the counterparty of OnSent/OnReceived/Forget but never appear in
// Neighbors(), so no strategy can ever pick one. Environments must refuse a
// real peer that claims a negative ID; strategies rely on it (reciprocity
// leaves pseudo-peers out of its count of repayable debts).
type PeerID int

// NoPeer is returned by NextReceiver when no upload is currently possible.
const NoPeer PeerID = -1

// NodeView is the window through which a strategy observes its peer's
// environment. Implementations must be cheap: strategies call these methods
// on every upload decision that has a candidate to weigh. A strategy that
// knows from its own books that it has nobody to serve returns NoPeer
// without calling the view at all. Global reputation is not part of the
// view: the reputation strategy reads the ledger it was built with.
type NodeView interface {
	// Self returns the ID of the peer this strategy controls.
	Self() PeerID
	// Now returns the current time in seconds (virtual or wall-clock).
	Now() float64
	// RNG returns the deterministic random source for this peer.
	RNG() *rand.Rand
	// Neighbors returns the currently connected candidate receivers, all of
	// them real peers (ID >= 0). The returned slice is valid only until the
	// next call on the view, and the caller may filter it in place —
	// implementations must hand out storage they are not reading
	// concurrently, not an internal slice they rely on. The candidates are
	// the links that can take a piece now: an environment may leave out a
	// link it cannot serve.
	Neighbors() []PeerID
	// WantsFromMe reports whether peer needs at least one piece I hold.
	WantsFromMe(peer PeerID) bool
}

// Strategy is one peer's incentive mechanism. Strategies are stateful and
// owned by exactly one peer; they are not safe for concurrent use (the
// simulator is single-threaded and the live node serializes decisions).
type Strategy interface {
	// Algorithm identifies the mechanism.
	Algorithm() algo.Algorithm
	// NextReceiver picks the neighbor to upload one piece to, or NoPeer if
	// the mechanism currently forbids uploading (e.g., reciprocity with
	// nothing to reciprocate).
	NextReceiver(view NodeView) PeerID
	// OnSent records that the peer finished uploading bytes to `to`.
	OnSent(view NodeView, to PeerID, bytes float64)
	// OnReceived records that the peer finished downloading bytes from
	// `from`.
	OnReceived(view NodeView, from PeerID, bytes float64)
	// Forget erases all local state about peer, modelling the peer's
	// departure or a whitewashing identity reset.
	Forget(peer PeerID)
}

// Params tunes the mechanisms. Zero values select the paper's experimental
// settings via Normalize.
type Params struct {
	// AlphaBT is BitTorrent's optimistic-unchoke probability (paper: 0.2).
	AlphaBT float64
	// NBT is the number of top contributors BitTorrent reciprocates with
	// (paper: n_BT = 4).
	NBT int
	// RoundSeconds is the tit-for-tat contribution window: "the previous
	// timeslot" in the paper's reciprocity/altruism hybrid description.
	RoundSeconds float64
	// AlphaR is the reputation algorithm's altruistic bootstrap share.
	AlphaR float64
}

// DefaultMaxNeighbors is the paper's view size (§V): a newcomer links to up
// to this many random active peers, so a strategy chooses among at most that
// many neighbours it dialed (Figure 6's large-view free-rider lifts the cap).
// sim.Default and the live node's Config.MaxNeighbors both default to it, so
// the two artefacts state one topology.
const DefaultMaxNeighbors = 50

// DefaultParams returns the paper's experimental settings.
func DefaultParams() Params {
	return Params{AlphaBT: 0.2, NBT: 4, RoundSeconds: 10, AlphaR: 0.1}
}

// Normalize fills zero fields with defaults and validates ranges.
func (p Params) Normalize() (Params, error) {
	def := DefaultParams()
	if p.AlphaBT == 0 {
		p.AlphaBT = def.AlphaBT
	}
	if p.NBT == 0 {
		p.NBT = def.NBT
	}
	if p.RoundSeconds == 0 {
		p.RoundSeconds = def.RoundSeconds
	}
	if p.AlphaR == 0 {
		p.AlphaR = def.AlphaR
	}
	if p.AlphaBT < 0 || p.AlphaBT > 1 {
		return p, fmt.Errorf("incentive: AlphaBT %g outside [0,1]", p.AlphaBT)
	}
	if p.AlphaR < 0 || p.AlphaR > 1 {
		return p, fmt.Errorf("incentive: AlphaR %g outside [0,1]", p.AlphaR)
	}
	if p.NBT < 1 {
		return p, fmt.Errorf("incentive: NBT %d must be >= 1", p.NBT)
	}
	if p.RoundSeconds <= 0 {
		return p, fmt.Errorf("incentive: RoundSeconds %g must be positive", p.RoundSeconds)
	}
	return p, nil
}

// New constructs the strategy for one compliant peer running the given
// mechanism. The ledger is required by the reputation algorithm and ignored
// by the others (it may be nil for them).
func New(a algo.Algorithm, params Params, ledger *reputation.Ledger) (Strategy, error) {
	p, err := params.Normalize()
	if err != nil {
		return nil, err
	}
	switch a {
	case algo.Reciprocity:
		return newReciprocity(), nil
	case algo.Altruism:
		return newAltruism(), nil
	case algo.BitTorrent:
		return newBitTorrent(p), nil
	case algo.FairTorrent:
		return newFairTorrent(), nil
	case algo.Reputation:
		if ledger == nil {
			return nil, fmt.Errorf("incentive: reputation algorithm requires a ledger")
		}
		return newReputation(p, ledger), nil
	case algo.TChain:
		return newTChain(), nil
	case algo.PropShare:
		return newPropShare(p), nil
	default:
		return nil, fmt.Errorf("incentive: unknown algorithm %v", a)
	}
}

// wantingLister is an optional NodeView capability: a view that answers
// interest from its own books (the simulator's holder rows in sim.peerView,
// the live node's link bitfields in its node and upload views) can produce
// the want-filtered neighbor list in one pass, skipping the per-neighbor
// WantsFromMe round trips. Implementations must return exactly the list the
// generic filter would build (same contents, same order, same
// in-place-filterable storage contract as Neighbors), or decline with
// ok == false.
type wantingLister interface {
	WantingNeighbors() (list []PeerID, ok bool)
}

// wantingNeighbors returns the neighbors that currently need at least one
// piece the local peer holds — the universal eligibility filter. It filters
// the view's slice in place (the NodeView contract permits this), so the
// per-decision hot path does not allocate; views implementing wantingLister
// short-circuit the filter entirely.
func wantingNeighbors(view NodeView) []PeerID {
	if wl, ok := view.(wantingLister); ok {
		if out, ok := wl.WantingNeighbors(); ok {
			return out
		}
	}
	neighbors := view.Neighbors()
	out := neighbors[:0]
	for _, n := range neighbors {
		if view.WantsFromMe(n) {
			out = append(out, n)
		}
	}
	return out
}

// wantingProber is an optional NodeView capability beside wantingLister:
// whether any neighbor needs a piece the local peer holds, answered without
// building the list, stopping at the first neighbor that does. It must agree
// with len(wantingNeighbors(view)) > 0, or decline with ok == false.
type wantingProber interface {
	AnyWanting() (wanting, ok bool)
}

// anyWanting reports whether any neighbor needs a piece the local peer
// holds, through the view's wantingProber when it has one and otherwise by
// the generic filter, stopping at the first neighbor it passes.
func anyWanting(view NodeView) bool {
	if wp, ok := view.(wantingProber); ok {
		if wanting, ok := wp.AnyWanting(); ok {
			return wanting
		}
	}
	return slices.ContainsFunc(view.Neighbors(), view.WantsFromMe)
}

// contribRecord is one peer's rolling contribution state for the round-based
// mechanisms: bytes received from the peer in the current round and in the
// previous one.
type contribRecord struct {
	id        PeerID
	cur, prev float64
}

// contribLedger holds the per-peer contribution windows as an id-sorted
// slice. The round-based mechanisms read it once per candidate per upload
// decision, and a binary search over a few dozen contiguous records beats a
// map lookup there while also making the rotation sweep deterministic.
type contribLedger []contribRecord

// find locates id's record, returning its index and whether it exists; on a
// miss the index is the insertion point. Hand-rolled rather than
// slices.BinarySearchFunc because this sits on the per-candidate decision
// path, where the generic comparator's call overhead dominates the search.
func (l contribLedger) find(id PeerID) (int, bool) {
	lo, hi := 0, len(l)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(l) && l[lo].id == id
}

// contribution blends the previous round's total with the current round's
// running total, so fresh uploads count before the round closes.
func (l contribLedger) contribution(id PeerID) float64 {
	if i, ok := l.find(id); ok {
		return l[i].cur + l[i].prev
	}
	return 0
}

// add records bytes received from id in the current round.
func (l *contribLedger) add(id PeerID, bytes float64) {
	i, ok := l.find(id)
	if ok {
		(*l)[i].cur += bytes
		return
	}
	*l = slices.Insert(*l, i, contribRecord{id: id, cur: bytes})
}

// rotate closes the round: each record's current total becomes its previous
// one, and records with nothing in either round are dropped, bounding the
// ledger the way the old per-round map clear did.
func (l *contribLedger) rotate() {
	out := (*l)[:0]
	for _, r := range *l {
		if r.cur != 0 || r.prev != 0 {
			out = append(out, contribRecord{id: r.id, prev: r.cur})
		}
	}
	*l = out
}

// forget drops id's record, modelling departure or a whitewashing reset.
func (l *contribLedger) forget(id PeerID) {
	if i, ok := l.find(id); ok {
		*l = slices.Delete(*l, i, i+1)
	}
}

// contribEntry pairs a candidate with its cached contribution total so
// PropShare looks each candidate up exactly once per decision instead of
// once per accumulation pass.
type contribEntry struct {
	id     PeerID
	weight float64
}

// randomPeer picks uniformly from candidates, or NoPeer if empty.
func randomPeer(rng *rand.Rand, candidates []PeerID) PeerID {
	if len(candidates) == 0 {
		return NoPeer
	}
	return candidates[rng.Intn(len(candidates))]
}
