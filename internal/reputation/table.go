package reputation

import "math/bits"

// Table maps peer IDs to values of type V: open addressing with linear
// probing over a power-of-two array of (key, value) slots, at most half
// full. It holds the per-peer numbers a decision reads once per candidate —
// the ledger's standings, FairTorrent's deficits — where a probe into one
// small array beats a Go map access. Entries are never removed: Zero resets
// a value in place, and a zero value reads like an absent one. So the table
// is bounded by the IDs seen, not by the largest ID: a hostile wire ID of
// 2³¹−1 costs one slot.
//
// Every int is a valid ID except math.MinInt64, whose key marks an empty
// slot; At refuses it, and it reads as absent. Pseudo-peers (−1, −2) and any
// int32 wire ID fit. The zero Table is empty and ready to use; it is not
// safe for concurrent use.
type Table[V any] struct {
	slots []slot[V]
	shift uint // 64 − log2(len(slots)): the hash keeps the product's top bits
	used  int
}

// slot is one (key, value) pair. An empty slot has key 0 and a zero value,
// so a probe that ends on one reads an absent ID's value.
type slot[V any] struct {
	key uint64
	val V
}

// tableKey is id with its sign bit flipped: a bijection from int64 that
// sends only math.MinInt64 to the empty marker 0.
func tableKey(id int) uint64 { return uint64(id) ^ 1<<63 }

// probe returns key's slot, or the empty slot where it would go; the table
// must not be empty. The first probe is Fibonacci hashing, which spreads
// dense IDs evenly.
func (t *Table[V]) probe(key uint64) *slot[V] {
	mask := uint64(len(t.slots) - 1)
	i := key * 0x9E3779B97F4A7C15 >> t.shift
	for t.slots[i].key != key && t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return &t.slots[i]
}

// Get returns id's value, the zero value if id was never stored.
func (t *Table[V]) Get(id int) V {
	if len(t.slots) == 0 {
		var zero V
		return zero
	}
	return t.probe(tableKey(id)).val
}

// At returns a pointer to id's value, storing a zero value first if id is
// new. The pointer is valid until the next At.
func (t *Table[V]) At(id int) *V {
	if 2*(t.used+1) > len(t.slots) {
		t.grow()
	}
	key := tableKey(id)
	s := t.probe(key)
	if s.key == 0 {
		if key == 0 {
			panic("reputation: Table cannot hold math.MinInt64")
		}
		s.key = key
		t.used++
	}
	return &s.val
}

// Zero resets id's value to the zero value; an absent ID stays absent.
func (t *Table[V]) Zero(id int) {
	if len(t.slots) > 0 {
		var zero V
		t.probe(tableKey(id)).val = zero
	}
}

// Len returns how many IDs the table holds, zeroed ones included.
func (t *Table[V]) Len() int { return t.used }

// Range calls f with every stored ID and its value, in slot order: the same
// sequence of At calls always ranges in the same order.
func (t *Table[V]) Range(f func(id int, v V)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.key != 0 {
			f(int(s.key^1<<63), s.val)
		}
	}
}

// grow doubles the table (to 16 slots from empty) and re-places every entry.
func (t *Table[V]) grow() {
	old := t.slots
	n := max(16, 2*len(old))
	t.slots = make([]slot[V], n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.key != 0 {
			*t.probe(s.key) = s
		}
	}
}
