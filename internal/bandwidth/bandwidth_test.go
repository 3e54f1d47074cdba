package bandwidth

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultDistributionValid(t *testing.T) {
	if err := DefaultDistribution().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadDistributions(t *testing.T) {
	cases := []Distribution{
		{},
		{Classes: []Class{{Rate: 0, Weight: 1}}},
		{Classes: []Class{{Rate: -5, Weight: 1}}},
		{Classes: []Class{{Rate: 10, Weight: -1}}},
		{Classes: []Class{{Rate: 10, Weight: 0}}},
	}
	for i, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSampleRespectsWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := Distribution{Classes: []Class{
		{Name: "a", Rate: 10, Weight: 1},
		{Name: "b", Rate: 20, Weight: 3},
	}}
	caps, err := d.Sample(rng, 40000)
	if err != nil {
		t.Fatal(err)
	}
	countB := 0
	for _, c := range caps {
		if c == 20 {
			countB++
		} else if c != 10 {
			t.Fatalf("unexpected capacity %g", c)
		}
	}
	frac := float64(countB) / 40000
	if frac < 0.72 || frac > 0.78 {
		t.Errorf("class b fraction %.3f, want ~0.75", frac)
	}
}

func TestSampleInvalidDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := (Distribution{}).Sample(rng, 5); err == nil {
		t.Error("invalid distribution sampled")
	}
}

func TestCheckBalance(t *testing.T) {
	if got := CheckBalance([]float64{1, 1, 1}); got != -1 {
		t.Errorf("balanced = %d, want -1", got)
	}
	if got := CheckBalance([]float64{10, 1, 1}); got != 0 {
		t.Errorf("dominant index = %d, want 0", got)
	}
	if got := CheckBalance(nil); got != -1 {
		t.Errorf("empty = %d, want -1", got)
	}
}

func TestAllocatorSlotAccounting(t *testing.T) {
	a := NewAllocator(100, 2)
	if a.Free() != 2 {
		t.Fatal("fresh allocator wrong")
	}
	d1, ok := a.Acquire(50)
	if !ok {
		t.Fatal("first Acquire failed")
	}
	// 50 bytes at 100/2 = 50 B/s per slot -> 1 s.
	if d1 != 1 {
		t.Errorf("duration = %g, want 1", d1)
	}
	if _, ok := a.Acquire(50); !ok {
		t.Fatal("second Acquire failed")
	}
	if _, ok := a.Acquire(50); ok {
		t.Fatal("third Acquire succeeded with 2 slots")
	}
	a.Release()
	if a.Free() != 1 {
		t.Errorf("Free = %d after release", a.Free())
	}
}

func TestAllocatorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewAllocator(0, 1) },
		func() { NewAllocator(10, 0) },
		func() { NewAllocator(10, 1).Release() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAllocatorDurationProperty(t *testing.T) {
	// Duration scales linearly with size and inversely with rate.
	f := func(rawSize, rawRate uint16, rawSlots uint8) bool {
		size := float64(rawSize%1000) + 1
		rate := float64(rawRate%1000) + 1
		slots := int(rawSlots%8) + 1
		a := NewAllocator(rate, slots)
		d, ok := a.Acquire(size)
		if !ok {
			return false
		}
		want := size * float64(slots) / rate
		return d == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
