// Package piece provides piece bookkeeping for cooperative file exchange:
// bitfields over the piece space, content-addressed piece stores with
// SHA-256 verification, and the local-rarest-first selection policy the
// paper assumes for its piece-availability model.
package piece

import (
	"fmt"
	"math/bits"
)

// Bitfield tracks which pieces of an M-piece file a peer holds. It is a
// value-semantics-free type: methods mutate in place and callers share
// pointers deliberately. Not safe for concurrent use.
type Bitfield struct {
	words []uint64
	size  int
	count int
}

// NewBitfield returns an empty bitfield over size pieces. It panics on a
// negative size.
func NewBitfield(size int) *Bitfield {
	if size < 0 {
		panic(fmt.Sprintf("piece: NewBitfield size %d", size))
	}
	return &Bitfield{words: make([]uint64, (size+63)/64), size: size}
}

// NewBitfieldBacked returns an empty bitfield over size pieces whose words
// live in the caller-provided slice, which must have length (size+63)/64 and
// be all zero. Callers may carve many bitfields out of one shared slab so
// the fields sit dense in memory — the simulator backs every peer's holdings
// this way, which keeps its interest answers cache-resident. The
// backing slice must not be mutated directly afterwards.
func NewBitfieldBacked(words []uint64, size int) *Bitfield {
	if size < 0 {
		panic(fmt.Sprintf("piece: NewBitfieldBacked size %d", size))
	}
	if len(words) != (size+63)/64 {
		panic(fmt.Sprintf("piece: NewBitfieldBacked got %d words, need %d", len(words), (size+63)/64))
	}
	for i, w := range words {
		if w != 0 {
			panic(fmt.Sprintf("piece: NewBitfieldBacked backing word %d not zero", i))
		}
	}
	return &Bitfield{words: words, size: size}
}

// Size returns the total number of pieces tracked.
func (b *Bitfield) Size() int { return b.size }

// Count returns the number of pieces held.
func (b *Bitfield) Count() int { return b.count }

// Complete reports whether every piece is held.
func (b *Bitfield) Complete() bool { return b.count == b.size }

// Has reports whether piece i is held. Out-of-range indices return false.
func (b *Bitfield) Has(i int) bool {
	if i < 0 || i >= b.size {
		return false
	}
	return b.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Set marks piece i as held and reports whether the bit changed. Setting an
// out-of-range index panics, since it indicates an indexing bug.
func (b *Bitfield) Set(i int) bool {
	if i < 0 || i >= b.size {
		panic(fmt.Sprintf("piece: Set(%d) out of range [0,%d)", i, b.size))
	}
	mask := uint64(1) << (uint(i) % 64)
	if b.words[i/64]&mask != 0 {
		return false
	}
	b.words[i/64] |= mask
	b.count++
	return true
}

// Clear unmarks piece i and reports whether the bit changed.
func (b *Bitfield) Clear(i int) bool {
	if i < 0 || i >= b.size {
		panic(fmt.Sprintf("piece: Clear(%d) out of range [0,%d)", i, b.size))
	}
	mask := uint64(1) << (uint(i) % 64)
	if b.words[i/64]&mask == 0 {
		return false
	}
	b.words[i/64] &^= mask
	b.count--
	return true
}

// SetAll marks every piece as held.
func (b *Bitfield) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if extra := b.size % 64; extra != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] = (1 << uint(extra)) - 1
	}
	b.count = b.size
}

// Clone returns an independent copy.
func (b *Bitfield) Clone() *Bitfield {
	words := make([]uint64, len(b.words))
	copy(words, b.words)
	return &Bitfield{words: words, size: b.size, count: b.count}
}

// MissingFrom returns the indices of pieces that other holds and b does not:
// the candidate set for a transfer from other to b's owner. The result is in
// ascending index order.
func (b *Bitfield) MissingFrom(other *Bitfield) []int {
	if other == nil {
		return nil
	}
	n := min(len(b.words), len(other.words))
	var out []int
	for w := 0; w < n; w++ {
		diff := other.words[w] &^ b.words[w]
		for diff != 0 {
			bit := bits.TrailingZeros64(diff)
			idx := w*64 + bit
			if idx < b.size {
				out = append(out, idx)
			}
			diff &= diff - 1
		}
	}
	return out
}

// CountMissingFrom returns len(MissingFrom(other)) without allocating.
func (b *Bitfield) CountMissingFrom(other *Bitfield) int {
	if other == nil {
		return 0
	}
	n := min(len(b.words), len(other.words))
	total := 0
	for w := 0; w < n; w++ {
		total += bits.OnesCount64(other.words[w] &^ b.words[w])
	}
	return total
}

// Words returns the bitfield's backing words (bit i of word w is piece
// w*64+i), shared rather than copied: the slice is allocated once and never
// reallocated, so index structures may cache it for repeated membership
// tests without re-dereferencing the Bitfield. Callers must not modify it.
func (b *Bitfield) Words() []uint64 { return b.words }

// ForEach calls fn for every held piece index in ascending order, without
// allocating the index slice Indices would build.
func (b *Bitfield) ForEach(fn func(i int)) {
	for w, word := range b.words {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			fn(w*64 + bit)
			word &= word - 1
		}
	}
}

// Needs reports whether other holds at least one piece that b lacks. This is
// the indicator behind the paper's q(i,j) probability.
func (b *Bitfield) Needs(other *Bitfield) bool {
	if other == nil {
		return false
	}
	n := min(len(b.words), len(other.words))
	for w := 0; w < n; w++ {
		if other.words[w]&^b.words[w] != 0 {
			return true
		}
	}
	return false
}

// Indices returns all held piece indices in ascending order.
func (b *Bitfield) Indices() []int {
	out := make([]int, 0, b.count)
	for w, word := range b.words {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			out = append(out, w*64+bit)
			word &= word - 1
		}
	}
	return out
}

// String renders the bitfield as a 0/1 string, for debugging and tests.
func (b *Bitfield) String() string {
	buf := make([]byte, b.size)
	for i := 0; i < b.size; i++ {
		if b.Has(i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}
