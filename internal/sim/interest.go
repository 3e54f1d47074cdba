package sim

import "repro/internal/incentive"

// This file maintains the incremental interest index. Each peer keeps, in
// parallel per-neighbor arrays (structure-of-arrays, so the maintenance scan
// walks dense memory instead of chasing per-edge records):
//
//	linkIdx[k]   — my direction's slot in the swarm's linkNeeds counter slab,
//	needsFlags[k] — my counter > 0 (neighbor k holds a piece I need),
//	wantsFlags[k] — the reverse counter > 0 (neighbor k needs a piece I hold),
//	revIdx[k]    — my slot in neighbor k's parallel arrays,
//	nbrOff[k]    — neighbor k's word offset in the swarm's bitfield slab,
//	idxByID      — neighbor ID → slot, for out-of-sequence queries.
//
// The two directional counters of a link live in adjacent int32 slots of
// Swarm.linkNeeds (slot^1 is the opposite direction), so the maintenance
// scan updates either direction through one dense slab instead of reaching
// into the remote peer's storage. The counters are seeded with one popcount
// pass when two peers connect (Bitfield.DiffCounts) and updated in O(1) per
// incident link when a peer gains a piece, so the NodeView interest queries
// (WantsFromMe / INeedFrom) become flag reads instead of bitfield scans. The
// flags change only on 0<->1 counter transitions.
//
// Invariants (checked by TestInterestIndexMatchesNaive):
//   - adjacency is symmetric and alive: depart tears down both sides of every
//     incident link before control returns, so an adjacency entry never
//     references an inactive peer, and q.revIdx[p.revIdx[k]] == k for
//     neighbors p = q.neighbors[...];
//   - linkNeeds[p.linkIdx[k]] == |p.neighbors[k].have \ p.have| at all times,
//     and p.neighbors[k].linkIdx[p.revIdx[k]] == p.linkIdx[k]^1;
//   - p.needsFlags[k] and p.wantsFlags[k] mirror the two counters' signs;
//   - p.idxByID[q.id] is q's slot in p's arrays, and p.nbrOff[k] is
//     p.neighbors[k].wordOff.
//
// Queries about peers with no link (the seeder pseudo-ID, departed or
// never-connected peers) fall back to the original bitfield scans, so the
// indexed and naive paths are observably identical.

// adjacency is one peer's per-neighbor arrays, structure-of-arrays: index k
// of each describes the link to neighbors[k] (the invariants above).
type adjacency struct {
	neighbors   []*peer
	neighborIDs []incentive.PeerID
	linkIdx     []int32 // my counter slot in Swarm.linkNeeds
	wantsFlags  []bool  // neighbor needs a piece I hold
	needsFlags  []bool  // neighbor holds a piece I need
	revIdx      []int32 // my slot in the neighbor's arrays
	nbrOff      []int32 // the neighbor's offset in Swarm.haveWords
}

// push appends one link's entries.
func (a *adjacency) push(q *peer, li int32, needs, wants bool, rev int32) {
	a.neighbors = append(a.neighbors, q)
	a.neighborIDs = append(a.neighborIDs, q.id)
	a.linkIdx = append(a.linkIdx, li)
	a.needsFlags = append(a.needsFlags, needs)
	a.wantsFlags = append(a.wantsFlags, wants)
	a.revIdx = append(a.revIdx, rev)
	a.nbrOff = append(a.nbrOff, q.wordOff)
}

// emptied returns a cut to no links, keeping its storage.
func (a adjacency) emptied() adjacency {
	return adjacency{
		a.neighbors[:0], a.neighborIDs[:0], a.linkIdx[:0], a.wantsFlags[:0],
		a.needsFlags[:0], a.revIdx[:0], a.nbrOff[:0],
	}
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
			make([]*peer, n), make([]incentive.PeerID, n), make([]int32, n), make([]bool, n),
			make([]bool, n), make([]int32, n), make([]int32, n),
		}
	}
	r := &a.rest
	return adjacency{
		cut(&r.neighbors, a.per), cut(&r.neighborIDs, a.per), cut(&r.linkIdx, a.per),
		cut(&r.wantsFlags, a.per), cut(&r.needsFlags, a.per), cut(&r.revIdx, a.per),
		cut(&r.nbrOff, a.per),
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
func (s *Swarm) attach(p, q *peer, li int32, needs, wants bool, rev int32) {
	old := p.adjacency
	p.push(q, li, needs, wants, rev)
	if len(old.neighbors) == s.adj.per && cap(old.neighbors) == s.adj.per {
		s.adj.spare = append(s.adj.spare, old.emptied())
	}
}

// connect wires the symmetric link p—q if absent, seeding both interest
// counters from a single popcount pass over the two bitfields. Counter slot
// pairs are recycled through the swarm's free list, so churn does not grow
// the slab.
func (s *Swarm) connect(p, q *peer) {
	if p == q {
		return
	}
	if _, dup := p.idxByID[q.id]; dup {
		return
	}
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
	p.idxByID[q.id] = int32(j)
	s.attach(p, q, li, qOnly > 0, pOnly > 0, int32(k))
	q.idxByID[p.id] = int32(k)
	s.attach(q, p, li+1, pOnly > 0, qOnly > 0, int32(j))
}

// detach removes slot i (the link to p) from q's adjacency in O(1), with the
// same swap-remove the simulator has always used so neighbor iteration order
// — and hence every downstream RNG draw — is unchanged. The neighbor moved
// into slot i has its reverse index fixed up on its own side.
func (q *peer) detach(p *peer, i int) {
	delete(q.idxByID, p.id)
	last := len(q.neighbors) - 1
	q.neighbors[i] = q.neighbors[last]
	q.neighbors = q.neighbors[:last]
	q.neighborIDs[i] = q.neighborIDs[last]
	q.neighborIDs = q.neighborIDs[:last]
	q.linkIdx[i] = q.linkIdx[last]
	q.linkIdx = q.linkIdx[:last]
	q.needsFlags[i] = q.needsFlags[last]
	q.needsFlags = q.needsFlags[:last]
	q.wantsFlags[i] = q.wantsFlags[last]
	q.wantsFlags = q.wantsFlags[:last]
	q.revIdx[i] = q.revIdx[last]
	q.revIdx = q.revIdx[:last]
	q.nbrOff[i] = q.nbrOff[last]
	q.nbrOff = q.nbrOff[:last]
	if i < last {
		moved := q.neighbors[i]
		moved.revIdx[q.revIdx[i]] = int32(i)
		q.idxByID[moved.id] = int32(i)
	}
}

// dropEdges tears down every link incident to p (on depart), returning the
// counter slot pairs to the free list. Bumping topoGen invalidates any
// view's cached cursor so flag indices that the swap-removes just shifted
// can never be read.
func (s *Swarm) dropEdges(p *peer) {
	s.topoGen++
	for k, q := range p.neighbors {
		q.detach(p, int(p.revIdx[k]))
		q.strategy.Forget(p.id)
		base := p.linkIdx[k] &^ 1
		s.linkNeeds[base] = 0
		s.linkNeeds[base+1] = 0
		s.freeLinks = append(s.freeLinks, base)
	}
	p.adjacency = p.emptied()
	clear(p.idxByID)
}

// noteGained updates every link incident to p after p gained piece i: p no
// longer needs i from neighbors that hold it, and neighbors that lack it now
// need it from p. O(degree), with each neighbor's holdings tested directly
// in the swarm's word slab and both counter directions updated through the
// dense linkNeeds slab; the remote peer is dereferenced only on the rare
// 0<->1 transitions that flip its flags.
func (s *Swarm) noteGained(p *peer, i int) {
	w, mask := i>>6, uint64(1)<<(uint(i)&63)
	words, linkNeeds := s.haveWords, s.linkNeeds
	nbrOff, linkIdx := p.nbrOff, p.linkIdx
	for k := range nbrOff {
		// Branch-free counter update: when the neighbor holds i this peer's
		// own counter (slot li) decrements, otherwise the reverse counter
		// (slot li^1) increments. Only the rare 0<->1 transition — the
		// counter landing on `held` (0 when decremented, 1 when incremented)
		// — takes the slow path that flips the interest flags.
		held := int32((words[int(nbrOff[k])+w] & mask) >> (uint(i) & 63))
		li := linkIdx[k] ^ (1 - held)
		linkNeeds[li] += 1 - 2*held
		if linkNeeds[li] == 1-held {
			if held != 0 {
				p.needsFlags[k] = false
				p.neighbors[k].wantsFlags[p.revIdx[k]] = false
			} else {
				p.wantsFlags[k] = true
				p.neighbors[k].needsFlags[p.revIdx[k]] = true
			}
		}
	}
}

// peerNeeds reports whether x still needs a piece y holds — the indexed
// equivalent of x.have.Needs(y.have), falling back to the scan when no link
// joins the pair.
func (s *Swarm) peerNeeds(x, y *peer) bool {
	if s.indexed {
		if j, ok := x.idxByID[y.id]; ok {
			return x.needsFlags[j]
		}
	}
	return x.have.Needs(y.have)
}

// wantingIDs appends to dst the IDs of neighbors whose wantsFlags are set —
// the peers that currently need at least one piece p holds — in adjacency
// order, which is exactly the order the generic Neighbors-then-WantsFromMe
// filter visits them.
func (p *peer) wantingIDs(dst []incentive.PeerID) []incentive.PeerID {
	for k, want := range p.wantsFlags {
		if want {
			dst = append(dst, p.neighborIDs[k])
		}
	}
	return dst
}
