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
