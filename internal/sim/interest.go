package sim

import (
	"slices"

	"repro/internal/incentive"
)

// This file maintains the incremental interest index. Each peer keeps, in
// parallel per-neighbor arrays (structure-of-arrays, so the maintenance scan
// walks dense memory instead of chasing per-edge records):
//
//	neighborIDs[k] — neighbor k's ID, which also addresses its holder bits,
//	linkIdx[k]     — my direction's slot in the swarm's linkNeeds counter slab,
//	wantsFlags[k]  — the reverse counter > 0 (neighbor k needs a piece I hold),
//	revIdx[k]      — my slot in neighbor k's parallel arrays.
//
// The two directional counters of a link live in adjacent int32 slots of
// Swarm.linkNeeds (slot^1 is the opposite direction), so the maintenance
// scan updates either direction through one dense slab instead of reaching
// into the remote peer's storage. The counters are seeded with one popcount
// pass when two peers connect (Bitfield.DiffCounts) and updated in O(1) per
// incident link when a peer gains a piece, so WantsFromMe becomes a flag
// read instead of a bitfield scan. The flags change only on 0<->1 counter
// transitions. Whether a neighbor holds the gained piece is read from
// Swarm.haveT, the holdings transposed: one row per bitfield word, one
// uint64 per peer, so the scan over a peer's neighbors reads one row.
//
// Invariants (checked by TestInterestIndexMatchesNaive):
//   - adjacency is symmetric, alive and free of duplicates: depart tears
//     down both sides of every incident link before control returns, so an
//     adjacency entry never references an inactive peer, and
//     q.revIdx[p.revIdx[k]] == k for neighbors q = p.neighbors[k];
//   - linkNeeds[p.linkIdx[k]] == |p.neighbors[k].have \ p.have| at all times,
//     and p.neighbors[k].linkIdx[p.revIdx[k]] == p.linkIdx[k]^1;
//   - p.wantsFlags[k] mirrors the sign of the reverse counter;
//   - haveT[w*NumPeers+id] is word w of peer id's have, departed peers
//     included.
//
// Queries the flags cannot answer by position (the seeder pseudo-ID, an
// out-of-order probe, a T-Chain distrust filter) take the bitfield scan the
// flags mirror, so the indexed and naive paths are observably identical.

// adjacency is one peer's per-neighbor arrays, structure-of-arrays: index k
// of each describes the link to neighbors[k] (the invariants above).
type adjacency struct {
	neighbors   []*peer
	neighborIDs []incentive.PeerID
	linkIdx     []int32 // my counter slot in Swarm.linkNeeds
	wantsFlags  []bool  // neighbor needs a piece I hold
	revIdx      []int32 // my slot in the neighbor's arrays
}

// push appends one link's entries.
func (a *adjacency) push(q *peer, li int32, wants bool, rev int32) {
	a.neighbors = append(a.neighbors, q)
	a.neighborIDs = append(a.neighborIDs, q.id)
	a.linkIdx = append(a.linkIdx, li)
	a.wantsFlags = append(a.wantsFlags, wants)
	a.revIdx = append(a.revIdx, rev)
}

// emptied returns a cut to no links, keeping its storage.
func (a adjacency) emptied() adjacency {
	return adjacency{a.neighbors[:0], a.neighborIDs[:0], a.linkIdx[:0], a.wantsFlags[:0], a.revIdx[:0]}
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
		a.rest = adjacency{
			make([]*peer, n), make([]incentive.PeerID, n), make([]int32, n), make([]bool, n), make([]int32, n),
		}
	}
	r := &a.rest
	return adjacency{
		cut(&r.neighbors, a.per), cut(&r.neighborIDs, a.per), cut(&r.linkIdx, a.per),
		cut(&r.wantsFlags, a.per), cut(&r.revIdx, a.per),
	}
}

// cut takes the first n elements of *s as an empty, capacity-n window.
func cut[T any](s *[]T, n int) []T {
	w := (*s)[:0:n]
	*s = (*s)[n:]
	return w
}

// attach appends p's side of its link to q. When that outgrows p's slab
// window, the window is spare from then on.
func (s *Swarm) attach(p, q *peer, li int32, wants bool, rev int32) {
	old := p.adjacency
	p.push(q, li, wants, rev)
	if len(old.neighbors) == s.adj.per && cap(old.neighbors) == s.adj.per {
		s.adj.spare = append(s.adj.spare, old.emptied())
	}
}

// connect wires the symmetric link p—q, seeding both interest counters from
// a single popcount pass over the two bitfields. The caller guarantees the
// pair is not linked yet: join links a newcomer to distinct candidates, each
// once (see Swarm.join). Counter slot pairs are recycled through the swarm's
// free list, so churn does not grow the slab.
func (s *Swarm) connect(p, q *peer) {
	var pOnly, qOnly int
	if s.indexed {
		pOnly, qOnly = p.have.DiffCounts(q.have)
	}
	var li int32
	if n := len(s.freeLinks); n > 0 {
		li = s.freeLinks[n-1]
		s.freeLinks = s.freeLinks[:n-1]
	} else {
		li = int32(len(s.linkNeeds))
		s.linkNeeds = append(s.linkNeeds, 0, 0)
	}
	s.linkNeeds[li] = int32(qOnly)   // p's needs across the link
	s.linkNeeds[li+1] = int32(pOnly) // q's needs across the link
	j, k := len(p.neighbors), len(q.neighbors)
	s.attach(p, q, li, pOnly > 0, int32(k))
	s.attach(q, p, li+1, qOnly > 0, int32(j))
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
	q.linkIdx[i] = q.linkIdx[last]
	q.linkIdx = q.linkIdx[:last]
	q.wantsFlags[i] = q.wantsFlags[last]
	q.wantsFlags = q.wantsFlags[:last]
	q.revIdx[i] = q.revIdx[last]
	q.revIdx = q.revIdx[:last]
	if i < last {
		q.neighbors[i].revIdx[q.revIdx[i]] = int32(i)
	}
}

// dropEdges tears down every link incident to p (on depart), returning the
// counter slot pairs to the free list. Bumping topoGen invalidates any
// view's cached cursor so flag indices that the swap-removes just shifted
// can never be read.
func (s *Swarm) dropEdges(p *peer) {
	s.topoGen++
	for k, q := range p.neighbors {
		q.detach(int(p.revIdx[k]))
		q.strategy.Forget(p.id)
		base := p.linkIdx[k] &^ 1
		s.linkNeeds[base] = 0
		s.linkNeeds[base+1] = 0
		s.freeLinks = append(s.freeLinks, base)
	}
	p.adjacency = p.emptied()
}

// noteGained updates every link incident to p after p gained piece i: p no
// longer needs i from neighbors that hold it, and neighbors that lack it now
// need it from p. O(degree): each neighbor's holding is one load from the
// piece's holder row in haveT, addressed by neighbor ID, and both counter
// directions are updated through the dense linkNeeds slab; the remote peer
// is dereferenced only on the rare 1->0 transition that clears its flag.
func (s *Swarm) noteGained(p *peer, i int) {
	n := len(s.peers)
	row := s.haveT[(i>>6)*n : (i>>6+1)*n]
	sh := uint(i) & 63
	linkNeeds := s.linkNeeds
	ids := p.neighborIDs
	linkIdx, wants := p.linkIdx[:len(ids)], p.wantsFlags[:len(ids)]
	for k, id := range ids {
		// Branch-free counter update: when the neighbor holds i this peer's
		// own counter (slot li) decrements, otherwise the reverse counter
		// (slot li^1) increments. Only the rare 0<->1 transition — the
		// counter landing on `held` (0 when decremented, 1 when incremented)
		// — takes the slow path that flips an interest flag.
		held := int32(row[id]>>sh) & 1
		li := linkIdx[k] ^ (1 - held)
		linkNeeds[li] += 1 - 2*held
		if linkNeeds[li] == 1-held {
			if held != 0 {
				p.neighbors[k].wantsFlags[p.revIdx[k]] = false
			} else {
				wants[k] = true
			}
		}
	}
}

// wantingIDs appends to dst the IDs of neighbors whose wantsFlags are set —
// the peers that currently need at least one piece p holds — in adjacency
// order, which is exactly the order the generic Neighbors-then-WantsFromMe
// filter visits them. It stores every ID and advances the write cursor by
// the flag, so the loop has no data-dependent branch.
func (p *peer) wantingIDs(dst []incentive.PeerID) []incentive.PeerID {
	n := len(dst)
	ids := p.neighborIDs
	flags := p.wantsFlags[:len(ids)]
	dst = slices.Grow(dst, len(ids))[:n+len(ids)]
	out := dst[n:]
	j := 0
	for k, id := range ids {
		out[j] = id
		j += b2i(flags[k])
	}
	return dst[:n+j]
}

// b2i converts a flag to 0 or 1; the compiler emits a zero-extending load,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
