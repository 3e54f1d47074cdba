package piece

import (
	"math/bits"
	"math/rand"

	"repro/internal/stats"
)

// Availability tracks, for each piece index, how many peers in a view hold
// it, alongside a rarity histogram: hist[c] counts the pieces held by exactly
// c peers, and the minimum occupied bucket is maintained incrementally so the
// current rarity floor is an O(1) query. Swarm simulators maintain one global
// instance; live nodes maintain one per neighborhood. Not safe for concurrent
// use.
type Availability struct {
	counts []int
	hist   []int // hist[c] = number of pieces with availability exactly c
	minC   int   // smallest c with hist[c] > 0; 0 for an empty piece space
}

// NewAvailability returns a zeroed availability index over numPieces pieces.
func NewAvailability(numPieces int) *Availability {
	a := &Availability{
		counts: make([]int, numPieces),
		hist:   make([]int, 1, 64),
	}
	a.hist[0] = numPieces
	return a
}

// AddPiece records that one more peer holds piece i.
func (a *Availability) AddPiece(i int) {
	if i < 0 || i >= len(a.counts) {
		return
	}
	c := a.counts[i]
	a.counts[i] = c + 1
	a.hist[c]--
	if c+1 >= len(a.hist) {
		a.hist = append(a.hist, 0)
	}
	a.hist[c+1]++
	// The minimum bucket only drains upward; sum(hist) is constant, so the
	// walk terminates and is amortized O(1) across a run.
	for a.minC < len(a.hist)-1 && a.hist[a.minC] == 0 {
		a.minC++
	}
}

// RemovePiece records that one fewer peer holds piece i (e.g., peer left).
func (a *Availability) RemovePiece(i int) {
	if i < 0 || i >= len(a.counts) || a.counts[i] == 0 {
		return
	}
	c := a.counts[i]
	a.counts[i] = c - 1
	a.hist[c]--
	a.hist[c-1]++
	if c-1 < a.minC {
		a.minC = c - 1
	}
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

// MinCount returns the lowest availability across all pieces — the rarity
// floor — in O(1). An empty piece space reports 0.
func (a *Availability) MinCount() int { return a.minC }

// Histogram returns a copy of the rarity histogram: the element at index c is
// the number of pieces held by exactly c peers. Intended for diagnostics and
// invariant checks, not hot paths.
func (a *Availability) Histogram() []int {
	out := make([]int, len(a.hist))
	copy(out, a.hist)
	return out
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

// SelectRandomMissing picks, uniformly at random, a piece that from holds and
// have lacks, excluding pieces marked in exclude; -1 when there is none. Only
// exclude may be nil (nothing excluded); from and exclude count as empty
// beyond their last word when shorter than have. It is the live node's push
// pick, where which piece goes out is mechanism-neutral: one pass of word ops
// counts the eligible set, a single rng draw (none for an empty set) chooses a
// rank in it, and a second pass finds the word holding that rank — O(words)
// whatever the number of eligible pieces, no allocation.
func SelectRandomMissing(rng *rand.Rand, have, from, exclude *Bitfield) int {
	limit := min(len(have.words), len(from.words))
	eligible := func(w int) uint64 {
		cand := from.words[w] &^ have.words[w]
		if exclude != nil && w < len(exclude.words) {
			cand &^= exclude.words[w]
		}
		if w == len(have.words)-1 && have.size%64 != 0 {
			cand &= 1<<uint(have.size%64) - 1 // bits beyond Size() are not pieces
		}
		return cand
	}
	total := 0
	for w := 0; w < limit; w++ {
		total += bits.OnesCount64(eligible(w))
	}
	if total == 0 {
		return -1
	}
	k := rng.Intn(total)
	for w := 0; w < limit; w++ {
		cand := eligible(w)
		if c := bits.OnesCount64(cand); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			cand &= cand - 1 // drop the k lowest set bits
		}
		return w*64 + bits.TrailingZeros64(cand)
	}
	return -1 // unreachable: k < total
}

// SelectRarestMissing picks, local-rarest-first with uniform tie-breaking, a
// piece that from holds and have lacks, excluding pieces marked in pending.
// A nil from means the sender holds everything (the seeder); a nil pending
// excludes nothing. It is the fused, allocation-free equivalent of
// have.MissingFrom(from) followed by a pending filter and RarestFirst: it
// visits the same candidates in the same ascending order and consumes exactly
// the same rng draws, so simulations that switch to it replay byte-for-byte.
// The reservoir tie-breaking is why the scan cannot stop early — a later
// candidate tying the current best must still consume a draw — so the win
// here is eliminating the candidate-slice allocation, not the scan itself.
func (a *Availability) SelectRarestMissing(rng *rand.Rand, have, from, pending *Bitfield) int {
	if have == nil {
		return -1
	}
	best := -1
	bestCount := int(^uint(0) >> 1)
	ties := 0
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
		for cand != 0 {
			idx := w*64 + bits.TrailingZeros64(cand)
			if idx >= have.size {
				break
			}
			count := 0
			if idx < len(a.counts) {
				count = a.counts[idx]
			}
			switch {
			case count < bestCount:
				best, bestCount, ties = idx, count, 1
			case count == bestCount:
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
