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

func randomBitfield(rng *rand.Rand, size int, density float64) *Bitfield {
	b := NewBitfield(size)
	for i := 0; i < size; i++ {
		if rng.Float64() < density {
			b.Set(i)
		}
	}
	return b
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

// TestPickRarestMissingMatchesRule holds the one-draw pick to
// SelectRarestMissing's rule over the same random sequences: it finds a
// piece exactly when SelectRarestMissing does, the piece is a candidate (from
// holds it, or from is nil; have lacks it; pending does not mark it; it is
// below have's size) and it is as rare as SelectRarestMissing's pick. Ties
// are broken uniformly: eight candidates tied at the lowest count, beside
// rarer-by-none and commoner ones, are each drawn about an eighth of the
// time, and each pick costs one draw.
func TestPickRarestMissingMatchesRule(t *testing.T) {
	gen := rand.New(rand.NewSource(8))
	rng := rand.New(rand.NewSource(9))
	sizes := []int{1, 5, 63, 64, 65, 100, 130, 512}
	densities := []float64{0, 0.05, 0.5, 0.95, 1}
	picked := 0
	for trial := 0; trial < 60; trial++ {
		n := sizes[gen.Intn(len(sizes))]
		a := NewAvailability(n)
		for step := 0; step < 150; step++ {
			if gen.Intn(2) == 0 {
				a.AddBitfield(randomBitfield(gen, n, densities[gen.Intn(len(densities))]))
			} else {
				a.RemovePiece(gen.Intn(n + 2))
			}
			size := n
			if gen.Intn(4) == 0 {
				size = sizes[gen.Intn(len(sizes))]
			}
			have := randomBitfield(gen, size, densities[gen.Intn(len(densities))])
			var from, pending *Bitfield
			if gen.Intn(3) != 0 {
				from = randomBitfield(gen, size, densities[gen.Intn(len(densities))])
			}
			if gen.Intn(3) != 0 {
				pending = randomBitfield(gen, size, 0.2)
			}
			want := a.SelectRarestMissing(rng, have, from, pending)
			got := a.PickRarestMissing(rng, have, from, pending)
			if (got < 0) != (want < 0) {
				t.Fatalf("trial %d step %d: picked %d where SelectRarestMissing picked %d", trial, step, got, want)
			}
			if got < 0 {
				continue
			}
			picked++
			candidate := got < have.Size() && !have.Has(got) && (from == nil || from.Has(got)) && (pending == nil || !pending.Has(got))
			if !candidate || a.Count(got) != a.Count(want) {
				t.Fatalf("trial %d step %d: picked %d (candidate %v, held by %d), SelectRarestMissing %d (held by %d)",
					trial, step, got, candidate, a.Count(got), want, a.Count(want))
			}
		}
	}
	if picked < 1000 {
		t.Fatalf("only %d non-empty picks; the generator is not exercising the pick", picked)
	}

	a := NewAvailability(200)
	have, from := NewBitfield(200), NewBitfield(200)
	for i := 0; i < 200; i++ {
		from.Set(i)
		a.AddPiece(i)
		if i%25 != 0 {
			a.AddPiece(i) // the eight multiples of 25 are the rarest
		}
	}
	counts := map[int]int{}
	const draws = 8000
	for d := 0; d < draws; d++ {
		counts[a.PickRarestMissing(rng, have, from, nil)]++
	}
	for i := 0; i < 200; i += 25 {
		if c := counts[i]; c < draws/8*8/10 || c > draws/8*12/10 {
			t.Errorf("piece %d drawn %d times of %d, want about %d", i, c, draws, draws/8)
		}
	}
	if len(counts) != 8 {
		t.Errorf("drew %d distinct pieces, want the 8 rarest only: %v", len(counts), counts)
	}
	twin := rand.New(rand.NewSource(3))
	one := rand.New(rand.NewSource(3))
	a.PickRarestMissing(one, have, from, nil)
	twin.Intn(8)
	if one.Int63() != twin.Int63() {
		t.Error("a pick over an eight-way tie drew more than once")
	}
}
