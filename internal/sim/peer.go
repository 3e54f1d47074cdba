package sim

import (
	"math/rand"

	"repro/internal/bandwidth"
	"repro/internal/eventsim"
	"repro/internal/incentive"
	"repro/internal/piece"
)

// SeederID is the pseudo-peer ID of the seeder in strategy callbacks.
const SeederID incentive.PeerID = -2

// peer is one simulated swarm member.
type peer struct {
	id       incentive.PeerID
	capacity float64
	alloc    *bandwidth.Allocator
	have     *piece.Bitfield
	pending  *piece.Bitfield // pieces currently in flight toward this peer
	strategy incentive.Strategy
	view     *peerView

	// The per-neighbor arrays, structure-of-arrays: index i of each of
	// adjacency's slices describes the link to neighbors[i]. See
	// interest.go for the invariants.
	adjacency

	freeRider bool
	aborted   bool // crashed mid-download (failure injection)
	arrival   float64
	joined    bool
	active    bool // joined and not yet departed

	// distrust marks peers that reneged on a T-Chain reciprocation with
	// this peer; they are never served again (the mechanism's local
	// reputation component).
	distrust map[incentive.PeerID]bool

	bootstrapAt float64 // time of first credited piece, -1 if never
	finishAt    float64 // completion time, -1 if never

	uploaded     float64 // bytes sent (link usage)
	creditedDown float64 // bytes received and credited (plaintext)
	rawDown      float64 // bytes received including uncredited ciphertext

	retry   eventsim.Timer   // pending idle-retry; the zero Timer when none
	retryFn eventsim.Handler // cached retry closure, allocated once per peer
}

// peerView adapts a peer to incentive.NodeView. One instance per peer,
// reused across decisions; the scratch slice keeps Neighbors allocation-free
// on the hot path.
type peerView struct {
	swarm   *Swarm
	peer    *peer
	scratch []incentive.PeerID
}

var _ incentive.NodeView = (*peerView)(nil)

func (v *peerView) Self() incentive.PeerID { return v.peer.id }
func (v *peerView) Now() float64           { return v.swarm.engine.Now() }
func (v *peerView) RNG() *rand.Rand        { return v.swarm.rng }

// Neighbors returns the IDs of currently active neighbors. The returned
// slice is valid until the next call on this view, and the caller may
// overwrite it in place (strategies filter it without allocating).
func (v *peerView) Neighbors() []incentive.PeerID {
	p := v.peer
	if len(p.distrust) == 0 {
		// Every adjacency entry is active (depart tears down its edges
		// before control returns to the simulator), so the id array can be
		// copied wholesale.
		v.scratch = append(v.scratch[:0], p.neighborIDs...)
	} else {
		v.scratch = v.scratch[:0]
		for _, n := range p.neighbors {
			if n.active && !p.distrust[n.id] {
				v.scratch = append(v.scratch, n.id)
			}
		}
	}
	return v.scratch
}

// WantsFromMe reports whether the identified peer needs a piece we hold:
// from the holder rows, or through Bitfield.Needs with the index off.
func (v *peerView) WantsFromMe(id incentive.PeerID) bool {
	other := v.swarm.lookup(id)
	if other == nil || !other.active {
		return false
	}
	if !v.swarm.indexed {
		return other.have.Needs(v.peer.have)
	}
	return v.swarm.wants(id, v.peer.have.Words())
}

// WantingNeighbors returns the neighbors that currently need at least one
// piece this peer holds, implementing the incentive package's optional
// fast-path interface: one pass over the holder rows replaces the
// per-neighbor WantsFromMe calls of the generic filter, with the identical
// result in the identical order. It declines (ok == false) when the index is
// off or a T-Chain distrust filter applies, sending the caller down the
// generic path.
func (v *peerView) WantingNeighbors() ([]incentive.PeerID, bool) {
	p := v.peer
	if !v.swarm.indexed || len(p.distrust) != 0 {
		return nil, false
	}
	v.scratch = v.swarm.wantingIDs(p, v.scratch[:0])
	return v.scratch, true
}

// AnyWanting reports whether any neighbor needs a piece this peer holds,
// stopping at the first that does: the incentive package's optional
// capability beside WantingNeighbors, declining in the same cases.
func (v *peerView) AnyWanting() (wanting, ok bool) {
	p := v.peer
	if !v.swarm.indexed || len(p.distrust) != 0 {
		return false, false
	}
	return v.swarm.anyWanting(p), true
}
