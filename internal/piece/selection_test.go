package piece

import (
	"math/rand"
	"testing"
)

func TestAvailabilityCounting(t *testing.T) {
	a := NewAvailability(10)
	a.AddPiece(3)
	a.AddPiece(3)
	a.AddPiece(5)
	if a.Count(3) != 2 || a.Count(5) != 1 || a.Count(0) != 0 {
		t.Error("counts wrong")
	}
	a.RemovePiece(3)
	if a.Count(3) != 1 {
		t.Errorf("Count(3) = %d after removal", a.Count(3))
	}
	a.RemovePiece(0) // underflow guard
	if a.Count(0) != 0 {
		t.Error("underflow not guarded")
	}
	a.AddPiece(-1) // out of range ignored
	a.AddPiece(10)
	if a.Count(-1) != 0 || a.Count(10) != 0 {
		t.Error("out-of-range not ignored")
	}
}

func TestAvailabilityBitfieldOps(t *testing.T) {
	a := NewAvailability(10)
	b := NewBitfield(10)
	b.Set(1)
	b.Set(4)
	a.AddBitfield(b)
	if a.Count(1) != 1 || a.Count(4) != 1 {
		t.Error("AddBitfield wrong")
	}
	a.RemoveBitfield(b)
	if a.Count(1) != 0 || a.Count(4) != 0 {
		t.Error("RemoveBitfield wrong")
	}
}

func TestRarestFirstPicksRarest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAvailability(5)
	a.AddPiece(0)
	a.AddPiece(0)
	a.AddPiece(1)
	// candidates: 0 (avail 2), 1 (avail 1), 2 (avail 0) -> must pick 2.
	if got := a.RarestFirst(rng, []int{0, 1, 2}); got != 2 {
		t.Errorf("RarestFirst = %d, want 2", got)
	}
	if got := a.RarestFirst(rng, nil); got != -1 {
		t.Errorf("empty candidates = %d, want -1", got)
	}
}

func TestRarestFirstTieBreakUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewAvailability(3)
	counts := make(map[int]int, 3)
	for i := 0; i < 30000; i++ {
		counts[a.RarestFirst(rng, []int{0, 1, 2})]++
	}
	for idx, c := range counts {
		frac := float64(c) / 30000
		if frac < 0.30 || frac > 0.37 {
			t.Errorf("tie index %d frequency %.3f, want ~1/3", idx, frac)
		}
	}
}

// eligibleRef enumerates from &^ have &^ exclude bit by bit through the
// public accessors — the reference SelectRandomMissing is checked against.
func eligibleRef(have, from, exclude *Bitfield) []int {
	var out []int
	for i := 0; i < have.Size(); i++ {
		if from.Has(i) && !have.Has(i) && (exclude == nil || !exclude.Has(i)) {
			out = append(out, i)
		}
	}
	return out
}

func randomBitfield(rng *rand.Rand, size int, density float64) *Bitfield {
	b := NewBitfield(size)
	for i := 0; i < size; i++ {
		if rng.Float64() < density {
			b.Set(i)
		}
	}
	return b
}

// TestSelectRandomMissingProperty checks the selector against the
// enumerate-and-index reference over random operands: sizes off the 64-bit
// word boundary, nil exclude, from/exclude longer and shorter than have,
// empty and full sets. A twin rng replays the draws the contract allows —
// one Intn(len(eligible)) for a non-empty set, none for an empty one — so the
// pick must be exactly the drawn rank of the reference and both generators
// must end in the same state.
func TestSelectRandomMissingProperty(t *testing.T) {
	gen := rand.New(rand.NewSource(3))
	rng, twin := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
	sizes := []int{1, 5, 63, 64, 65, 100, 128, 191, 1000}
	densities := []float64{0, 0.05, 0.5, 0.95, 1}
	empty, nonEmpty := 0, 0
	for trial := 0; trial < 4000; trial++ {
		size := sizes[gen.Intn(len(sizes))]
		// from and exclude may track a different piece count than have.
		fromSize, exclSize := size, size
		switch gen.Intn(4) {
		case 0:
			fromSize = sizes[gen.Intn(len(sizes))]
		case 1:
			exclSize = sizes[gen.Intn(len(sizes))]
		}
		have := randomBitfield(gen, size, densities[gen.Intn(len(densities))])
		from := randomBitfield(gen, fromSize, densities[gen.Intn(len(densities))])
		var exclude *Bitfield
		if gen.Intn(3) != 0 {
			exclude = randomBitfield(gen, exclSize, densities[gen.Intn(len(densities))])
		}

		want := -1
		ref := eligibleRef(have, from, exclude)
		if len(ref) > 0 {
			want = ref[twin.Intn(len(ref))]
			nonEmpty++
		} else {
			empty++
		}
		if got := SelectRandomMissing(rng, have, from, exclude); got != want {
			t.Fatalf("trial %d (size %d, from %d, exclude %v): picked %d, want %d of %v",
				trial, size, fromSize, exclude != nil, got, want, ref)
		}
		if a, b := rng.Int63(), twin.Int63(); a != b {
			t.Fatalf("trial %d: rng state diverged after a pick over %d eligible pieces", trial, len(ref))
		}
	}
	if empty < 100 || nonEmpty < 100 {
		t.Fatalf("generator covered %d empty and %d non-empty sets; want both well represented", empty, nonEmpty)
	}
}

// TestSelectRandomMissingUniform draws 60000 picks over 12 eligible pieces
// spread across three words (5000 expected each, sigma ~68) and requires
// every one within +-6 % of its share.
func TestSelectRandomMissingUniform(t *testing.T) {
	const size, draws = 150, 60000
	have, from, exclude := NewBitfield(size), NewBitfield(size), NewBitfield(size)
	from.SetAll()
	eligible := []int{0, 1, 31, 62, 63, 64, 65, 100, 127, 128, 148, 149}
	for i := 0; i < size; i++ { // every piece is ruled out by have or by exclude…
		if i%2 == 0 {
			have.Set(i)
		} else {
			exclude.Set(i)
		}
	}
	for _, i := range eligible { // …except these
		have.Clear(i)
		exclude.Clear(i)
	}
	rng := rand.New(rand.NewSource(5))
	counts := make(map[int]int, len(eligible))
	for i := 0; i < draws; i++ {
		counts[SelectRandomMissing(rng, have, from, exclude)]++
	}
	if len(counts) != len(eligible) {
		t.Fatalf("picked %d distinct pieces, want %d: %v", len(counts), len(eligible), counts)
	}
	expect := float64(draws) / float64(len(eligible))
	for _, idx := range eligible {
		if c := float64(counts[idx]); c < 0.94*expect || c > 1.06*expect {
			t.Errorf("piece %d picked %d times, want %.0f +-6%%", idx, counts[idx], expect)
		}
	}
}

// rarestRef is the reference SelectRarestMissing is checked against: the
// candidate list MissingFrom builds (every missing piece for a nil from),
// minus pending, handed to RarestFirst.
func rarestRef(rng *rand.Rand, a *Availability, have, from, pending *Bitfield) int {
	var candidates []int
	if from == nil {
		for i := 0; i < have.Size(); i++ {
			if !have.Has(i) {
				candidates = append(candidates, i)
			}
		}
	} else {
		candidates = have.MissingFrom(from)
	}
	filtered := candidates[:0]
	for _, c := range candidates {
		if pending == nil || !pending.Has(c) {
			filtered = append(filtered, c)
		}
	}
	return a.RarestFirst(rng, filtered)
}

// TestSelectRarestMissingMatchesRarestFirst drives random AddPiece,
// RemovePiece, AddBitfield and RemoveBitfield sequences (counts high enough
// to grow the rarity levels several times) and after each step compares a
// pick over random operands with the reference: nil from (the seeder), nil
// pending, sizes off the word boundary, and have/from/pending longer or
// shorter than the availability. A twin rng runs the reference, so the next
// Int63 of both must agree too — a pick that draws once more or once less
// than RarestFirst fails even when it lands on the same piece.
func TestSelectRarestMissingMatchesRarestFirst(t *testing.T) {
	gen := rand.New(rand.NewSource(6))
	rng, twin := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	sizes := []int{1, 5, 63, 64, 65, 100, 130, 512}
	densities := []float64{0, 0.05, 0.5, 0.95, 1}
	picked := 0
	for trial := 0; trial < 60; trial++ {
		n := sizes[gen.Intn(len(sizes))]
		a := NewAvailability(n)
		var held []*Bitfield // bitfields added whole, for RemoveBitfield
		for step := 0; step < 150; step++ {
			switch op := gen.Intn(10); {
			case op < 4:
				a.AddPiece(gen.Intn(n + 2))
			case op < 6:
				a.RemovePiece(gen.Intn(n + 2))
			case op < 8:
				b := randomBitfield(gen, n, densities[gen.Intn(len(densities))])
				a.AddBitfield(b)
				held = append(held, b)
			default:
				if len(held) > 0 {
					k := gen.Intn(len(held))
					a.RemoveBitfield(held[k])
					held = append(held[:k], held[k+1:]...)
				}
			}
			size := n
			if gen.Intn(4) == 0 {
				size = sizes[gen.Intn(len(sizes))] // longer or shorter than the availability
			}
			have := randomBitfield(gen, size, densities[gen.Intn(len(densities))])
			var from, pending *Bitfield
			if gen.Intn(3) != 0 {
				from = randomBitfield(gen, size, densities[gen.Intn(len(densities))])
			}
			if gen.Intn(3) != 0 {
				pending = randomBitfield(gen, size, 0.2)
			}
			want := rarestRef(twin, a, have, from, pending)
			got := a.SelectRarestMissing(rng, have, from, pending)
			if got != want {
				t.Fatalf("trial %d step %d (n %d, size %d, nil from %v, nil pending %v): picked %d, want %d",
					trial, step, n, size, from == nil, pending == nil, got, want)
			}
			if x, y := rng.Int63(), twin.Int63(); x != y {
				t.Fatalf("trial %d step %d: rng state diverged after picking %d", trial, step, got)
			}
			if got >= 0 {
				picked++
			}
		}
	}
	if picked < 1000 {
		t.Fatalf("only %d non-empty picks; the generator is not exercising the selector", picked)
	}
}
