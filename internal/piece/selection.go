package piece

import (
	"math/bits"
	"math/rand"

	"repro/internal/stats"
)

// Availability tracks, for each piece index, how many peers in a view hold
// it, alongside cumulative rarity levels: level c is the bitset of pieces
// held by at most c peers. The levels live in one slab, words uint64s each,
// that doubles as the highest count rises; every stored level at or above
// the highest count holds all pieces, and bits past the last piece are set
// in every level. A count change moves one bit in one level, and
// SelectRarestMissing masks its candidates with the level of the running
// best. Swarm simulators maintain one global instance. Not safe for
// concurrent use.
type Availability struct {
	counts []int
	le     []uint64 // level c is le[c*words : (c+1)*words]
	words  int
	levels int // stored levels; always above every count
}

// NewAvailability returns a zeroed availability index over numPieces pieces.
func NewAvailability(numPieces int) *Availability {
	a := &Availability{counts: make([]int, numPieces), words: (numPieces + 63) / 64}
	a.grow(8)
	return a
}

// grow extends the slab to n levels; the new levels hold every piece.
func (a *Availability) grow(n int) {
	le := make([]uint64, n*a.words)
	copy(le, a.le)
	for i := len(a.le); i < len(le); i++ {
		le[i] = ^uint64(0)
	}
	a.le, a.levels = le, n
}

// level returns the pieces held by at most c peers, c below a.levels.
func (a *Availability) level(c int) []uint64 {
	return a.le[c*a.words : (c+1)*a.words]
}

// AddPiece records that one more peer holds piece i.
func (a *Availability) AddPiece(i int) {
	if i < 0 || i >= len(a.counts) {
		return
	}
	c := a.counts[i]
	a.counts[i] = c + 1
	if c+1 == a.levels {
		a.grow(2 * a.levels)
	}
	a.le[c*a.words+i/64] &^= 1 << (uint(i) % 64)
}

// RemovePiece records that one fewer peer holds piece i (e.g., peer left).
func (a *Availability) RemovePiece(i int) {
	if i < 0 || i >= len(a.counts) || a.counts[i] == 0 {
		return
	}
	c := a.counts[i] - 1
	a.counts[i] = c
	a.le[c*a.words+i/64] |= 1 << (uint(i) % 64)
}

// AddBitfield records every piece in b as held by one more peer.
func (a *Availability) AddBitfield(b *Bitfield) {
	b.ForEach(a.AddPiece)
}

// RemoveBitfield reverses AddBitfield.
func (a *Availability) RemoveBitfield(b *Bitfield) {
	b.ForEach(a.RemovePiece)
}

// Count returns the availability of piece i.
func (a *Availability) Count(i int) int {
	if i < 0 || i >= len(a.counts) {
		return 0
	}
	return a.counts[i]
}

// AtMost returns a copy of the pieces held by at most c peers: the rarity
// level SelectRarestMissing masks with. Intended for invariant checks, not
// hot paths.
func (a *Availability) AtMost(c int) *Bitfield {
	b := NewBitfield(len(a.counts))
	if c < 0 {
		return b
	}
	copy(b.words, a.level(min(c, a.levels-1)))
	if tail := b.size % 64; tail != 0 {
		b.words[len(b.words)-1] &= 1<<uint(tail) - 1
	}
	for _, w := range b.words {
		b.count += bits.OnesCount64(w)
	}
	return b
}

// RarestFirst picks from candidates the piece with the lowest availability,
// breaking ties uniformly at random (the paper assumes pieces are equally
// likely to be held, which local-rarest-first approximates). It returns -1
// for an empty candidate set.
func (a *Availability) RarestFirst(rng *rand.Rand, candidates []int) int {
	if len(candidates) == 0 {
		return -1
	}
	best := -1
	bestCount := int(^uint(0) >> 1)
	ties := 0
	for _, c := range candidates {
		count := a.Count(c)
		switch {
		case count < bestCount:
			best, bestCount, ties = c, count, 1
		case count == bestCount:
			// Reservoir-sample among ties so selection stays uniform without
			// a second pass.
			ties++
			if stats.OneIn(rng, ties) {
				best = c
			}
		}
	}
	return best
}

// SelectRarestMissing picks, local-rarest-first with uniform tie-breaking, a
// piece that from holds and have lacks, excluding pieces marked in pending.
// A nil from means the sender holds everything (the seeder); a nil pending
// excludes nothing; pieces beyond the availability's range count as held by
// nobody. It is the fused, allocation-free equivalent of
// have.MissingFrom(from) followed by a pending filter and RarestFirst, and
// consumes exactly the same rng draws, so simulations that switch to it
// replay byte-for-byte. Candidates are visited in the same ascending order,
// but each word is masked with the rarity level of the running best (and
// re-masked at every new best), so only the candidates that tie or beat it
// are visited at all — exactly the ones that draw or move the pick.
func (a *Availability) SelectRarestMissing(rng *rand.Rand, have, from, pending *Bitfield) int {
	if have == nil {
		return -1
	}
	best, bestCount, ties := -1, 0, 0
	var level []uint64 // pieces held by at most bestCount peers, once ties > 0
	for w := range have.words {
		var cand uint64
		if from == nil {
			cand = ^have.words[w]
		} else if w < len(from.words) {
			cand = from.words[w] &^ have.words[w]
		}
		if pending != nil && w < len(pending.words) {
			cand &^= pending.words[w]
		}
		if w < len(level) {
			cand &= level[w]
		}
		for cand != 0 {
			idx := w*64 + bits.TrailingZeros64(cand)
			if idx >= have.size {
				break
			}
			count := 0
			if idx < len(a.counts) {
				count = a.counts[idx]
			}
			if ties == 0 || count < bestCount {
				best, bestCount, ties = idx, count, 1
				level = a.level(count)
				if w < len(level) {
					cand &= level[w]
				}
			} else { // count == bestCount: the level admits nothing more common
				ties++
				if stats.OneIn(rng, ties) {
					best = idx
				}
			}
			cand &= cand - 1
		}
	}
	return best
}

// PickRarestMissing is SelectRarestMissing's rule — a piece from holds, have
// lacks and pending does not mark, held by as few peers as any such piece,
// ties broken uniformly — drawn with one rng draw instead of one per tie. A
// pass masked by the level below the running best finds the lowest count, a
// second counts the candidates at that level, a third finds the drawn one:
// O(words) however wide the tie, no allocation. Its draws are not
// SelectRarestMissing's, so the simulator, whose runs are pinned to those,
// keeps that one; the live requester, whose ties span most of a file early
// in a download, picks with this.
func (a *Availability) PickRarestMissing(rng *rand.Rand, have, from, pending *Bitfield) int {
	if have == nil {
		return -1
	}
	candidates := func(w int) uint64 {
		var cand uint64
		if from == nil {
			cand = ^have.words[w]
		} else if w < len(from.words) {
			cand = from.words[w] &^ have.words[w]
		}
		if pending != nil && w < len(pending.words) {
			cand &^= pending.words[w]
		}
		if w == len(have.words)-1 && have.size%64 != 0 {
			cand &= 1<<uint(have.size%64) - 1 // bits beyond Size() are not pieces
		}
		return cand
	}
	// level returns word w of the pieces held by at most c peers; a piece
	// beyond the availability's range is held by nobody.
	level := func(c, w int) uint64 {
		if w < a.words {
			return a.level(c)[w]
		}
		return ^uint64(0)
	}
	best := -1
	for w := range have.words {
		cand := candidates(w)
		for cand != 0 && best != 0 {
			if best > 0 {
				if cand &= level(best-1, w); cand == 0 {
					break
				}
			}
			idx := w*64 + bits.TrailingZeros64(cand)
			best = 0
			if idx < len(a.counts) {
				best = a.counts[idx]
			}
		}
	}
	if best < 0 {
		return -1
	}
	total := 0
	for w := range have.words {
		total += bits.OnesCount64(candidates(w) & level(best, w))
	}
	k := rng.Intn(total)
	for w := range have.words {
		cand := candidates(w) & level(best, w)
		if c := bits.OnesCount64(cand); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			cand &= cand - 1
		}
		return w*64 + bits.TrailingZeros64(cand)
	}
	return -1 // unreachable: k < total
}
