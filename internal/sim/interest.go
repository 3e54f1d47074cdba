package sim

import (
	"slices"

	"repro/internal/incentive"
)

// This file keeps each peer's links and answers the simulator's interest
// question — does neighbor q lack a piece p holds? — from the holdings
// alone, with nothing kept per link. A peer's links are parallel
// per-neighbor arrays (structure-of-arrays, so a scan walks dense memory):
//
//	neighborIDs[k] — neighbor k's ID, which also addresses its holder column,
//	revIdx[k]      — my slot in neighbor k's parallel arrays.
//
// Swarm.haveT is every peer's holdings transposed, one row per bitfield
// word and one uint64 per peer, set in credit beside have.Set. wants
// compares p's words with q's column one word at a time and stops at the
// first word where p holds a bit q lacks, so a scan over p's neighbors reads
// a few cache-resident rows and never q's own record.
//
// Invariants (checked by TestInterestIndexMatchesNaive):
//   - adjacency is symmetric, alive and free of duplicates: depart tears
//     down both sides of every incident link before control returns, so an
//     adjacency entry never references an inactive peer, and
//     q.revIdx[p.revIdx[k]] == k for neighbors q = p.neighbors[k];
//   - haveT[w*NumPeers+id] is word w of peer id's have, departed peers
//     included.
//
// With Swarm.indexed cleared every answer takes Bitfield.Needs instead.

// adjacency is one peer's per-neighbor arrays, structure-of-arrays: index k
// of each describes the link to neighbors[k] (the invariants above).
type adjacency struct {
	neighbors   []*peer
	neighborIDs []incentive.PeerID
	revIdx      []int32 // my slot in the neighbor's arrays
}

// push appends one link's entries.
func (a *adjacency) push(q *peer, rev int32) {
	a.neighbors = append(a.neighbors, q)
	a.neighborIDs = append(a.neighborIDs, q.id)
	a.revIdx = append(a.revIdx, rev)
}

// emptied returns a cut to no links, keeping its storage.
func (a adjacency) emptied() adjacency {
	return adjacency{a.neighbors[:0], a.neighborIDs[:0], a.revIdx[:0]}
}

// slabWindows is how many windows one slab allocation holds.
const slabWindows = 64

// adjacencySlabs hands each joining peer its adjacency as a window of
// swarm-level slabs, per entries long — twice MaxNeighbors: its own links
// plus about as many from later joiners — so those links allocate nothing.
// Three-index slicing caps every window: a peer that outgrows its window
// appends into a private copy, never into another peer's window, and the
// window it leaves goes to the next peer to join. Degrees are heavy-tailed
// (early joiners collect the links of everyone after them), so without that
// reuse the windows the early joiners outgrow would cost more memory than
// growing every array link by link.
type adjacencySlabs struct {
	per   int
	spare []adjacency // vacated windows, handed out first
	rest  adjacency   // the newest slab's windows not yet handed out
}

// window returns an empty window, carving a new slab when none is spare.
func (a *adjacencySlabs) window() adjacency {
	if n := len(a.spare); n > 0 {
		w := a.spare[n-1]
		a.spare = a.spare[:n-1]
		return w
	}
	if len(a.rest.neighbors) == 0 {
		n := slabWindows * a.per
		a.rest = adjacency{make([]*peer, n), make([]incentive.PeerID, n), make([]int32, n)}
	}
	r := &a.rest
	return adjacency{cut(&r.neighbors, a.per), cut(&r.neighborIDs, a.per), cut(&r.revIdx, a.per)}
}

// cut takes the first n elements of *s as an empty, capacity-n window.
func cut[T any](s *[]T, n int) []T {
	w := (*s)[:0:n]
	*s = (*s)[n:]
	return w
}

// attach appends p's side of its link to q. When that outgrows p's slab
// window, the window is spare from then on.
func (s *Swarm) attach(p, q *peer, rev int32) {
	old := p.adjacency
	p.push(q, rev)
	if len(old.neighbors) == s.adj.per && cap(old.neighbors) == s.adj.per {
		s.adj.spare = append(s.adj.spare, old.emptied())
	}
}

// connect wires the symmetric link p—q. The caller guarantees the pair is
// not linked yet: join links a newcomer to distinct candidates, each once
// (see Swarm.join).
func (s *Swarm) connect(p, q *peer) {
	j, k := len(p.neighbors), len(q.neighbors)
	s.attach(p, q, int32(k))
	s.attach(q, p, int32(j))
}

// detach removes slot i (a departing peer's link) from q's adjacency in
// O(1), with the same swap-remove the simulator has always used so neighbor
// iteration order — and hence every downstream RNG draw — is unchanged. The
// neighbor moved into slot i has its reverse index fixed up on its own side.
func (q *peer) detach(i int) {
	last := len(q.neighbors) - 1
	q.neighbors[i] = q.neighbors[last]
	q.neighbors = q.neighbors[:last]
	q.neighborIDs[i] = q.neighborIDs[last]
	q.neighborIDs = q.neighborIDs[:last]
	q.revIdx[i] = q.revIdx[last]
	q.revIdx = q.revIdx[:last]
	if i < last {
		q.neighbors[i].revIdx[q.revIdx[i]] = int32(i)
	}
}

// dropEdges tears down every link incident to p (on depart).
func (s *Swarm) dropEdges(p *peer) {
	for k, q := range p.neighbors {
		q.detach(int(p.revIdx[k]))
		q.strategy.Forget(p.id)
	}
	p.adjacency = p.emptied()
}

// wants reports whether peer id lacks a piece in have, a peer's bitfield
// words, reading id's column of the holder rows: the first word holding a
// bit the column lacks answers yes.
func (s *Swarm) wants(id incentive.PeerID, have []uint64) bool {
	n := len(s.peers)
	col := s.haveT[id:]
	for w, x := range have {
		if x&^col[w*n] != 0 {
			return true
		}
	}
	return false
}

// wantingIDs appends to dst the IDs of p's neighbors that need at least one
// piece p holds, in adjacency order, which is exactly the order the generic
// Neighbors-then-WantsFromMe filter visits them. dst grows once to p's
// degree, so a reused scratch slice stops allocating.
func (s *Swarm) wantingIDs(p *peer, dst []incentive.PeerID) []incentive.PeerID {
	dst = slices.Grow(dst, len(p.neighborIDs))
	if p.have.Count() == 0 {
		return dst
	}
	have := p.have.Words()
	for _, id := range p.neighborIDs {
		if s.wants(id, have) {
			dst = append(dst, id)
		}
	}
	return dst
}

// anyWanting reports whether any of p's neighbors needs a piece p holds,
// stopping at the first one that does.
func (s *Swarm) anyWanting(p *peer) bool {
	if p.have.Count() == 0 {
		return false // a peer holding nothing has nothing to want
	}
	have := p.have.Words()
	for _, id := range p.neighborIDs {
		if s.wants(id, have) {
			return true
		}
	}
	return false
}
