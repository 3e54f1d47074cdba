package reputation

import (
	"errors"
	"maps"
	"math"
	"math/rand"
	"testing"

	"repro/internal/attest"
)

// mapLedger is the ledger as it stood with its standings in three Go maps,
// kept as the reference the table-backed ledger must agree with.
type mapLedger struct {
	policy  attest.Policy
	scores  map[int]float64
	valid   map[int]uint64
	invalid map[int]uint64
}

func newMapLedger(policy attest.Policy) *mapLedger {
	return &mapLedger{policy: policy, scores: map[int]float64{}, valid: map[int]uint64{}, invalid: map[int]uint64{}}
}

func (l *mapLedger) Credit(att attest.Attestation) error {
	if att.Bytes <= 0 {
		return ErrNonPositive
	}
	if err := l.policy.Verify(att); err != nil {
		l.invalid[int(att.Sender)]++
		return err
	}
	l.scores[int(att.Sender)] += float64(att.Bytes)
	l.valid[int(att.Sender)]++
	return nil
}

func (l *mapLedger) Score(peer int) float64 { return l.scores[peer] }

func (l *mapLedger) Scores(entries []Scored) {
	for i := range entries {
		entries[i].Score = l.scores[entries[i].Peer]
	}
}

func (l *mapLedger) Reset(peer int) {
	delete(l.scores, peer)
	delete(l.valid, peer)
	delete(l.invalid, peer)
}

func (l *mapLedger) Snapshot() map[int]Standing {
	out := make(map[int]Standing, len(l.scores))
	for k, v := range l.scores {
		out[k] = Standing{Score: v, Valid: l.valid[k]}
	}
	for k, n := range l.valid {
		if _, ok := out[k]; !ok {
			out[k] = Standing{Valid: n}
		}
	}
	for k, n := range l.invalid {
		s := out[k]
		s.Invalid = n
		out[k] = s
	}
	return out
}

// errOddIndex is oddIndexPolicy's rejection.
var errOddIndex = errors.New("odd index")

// oddIndexPolicy rejects every attestation for an odd piece index, so one
// script drives both the credit and the rejection path.
type oddIndexPolicy struct{}

func (oddIndexPolicy) Verify(att attest.Attestation) error {
	if att.Index%2 != 0 {
		return errOddIndex
	}
	return nil
}

// TestLedgerEqualsMapLedger drives the table-backed ledger and the map-backed
// reference through random valid, invalid and non-positive credits and
// resets over pseudo-peers, dense IDs and the int32 extremes: every Credit
// returns the same error, and every Score, Scores and Snapshot read after
// every step is equal. IDs no credit can carry (beyond int32, and the
// table's reserved math.MinInt64) are read and reset too.
func TestLedgerEqualsMapLedger(t *testing.T) {
	credited := []int32{-2, -1, 0, 1, 2, 3, 4, 5, 6, 7, math.MaxInt32, math.MinInt32}
	read := []int{12345, math.MaxInt64, math.MinInt64}
	for _, id := range credited {
		read = append(read, int(id))
	}
	for seed := int64(1); seed <= 20; seed++ {
		script := rand.New(rand.NewSource(seed))
		l, ref := NewLedger(oddIndexPolicy{}), newMapLedger(oddIndexPolicy{})
		batch := make([]Scored, len(read))
		refBatch := make([]Scored, len(read))
		for step := 0; step < 2000; step++ {
			switch op := script.Intn(10); {
			case op < 7:
				// Odd byte counts make the float sums order-sensitive; about
				// one credit in eight is non-positive, half the rest rejected.
				att := attest.Claim(credited[script.Intn(len(credited))], 9, int32(script.Intn(4)), int64(script.Intn(1<<20)-1<<17))
				if got, want := l.Credit(att), ref.Credit(att); got != want {
					t.Fatalf("seed %d step %d: Credit(%+v) = %v, map %v", seed, step, att, got, want)
				}
			default:
				peer := read[script.Intn(len(read))]
				l.Reset(peer)
				ref.Reset(peer)
			}
			for _, id := range read {
				if got, want := l.Score(id), ref.Score(id); got != want {
					t.Fatalf("seed %d step %d: Score(%d) = %g, map %g", seed, step, id, got, want)
				}
			}
			script.Shuffle(len(read), func(i, j int) { read[i], read[j] = read[j], read[i] })
			for i, id := range read {
				batch[i] = Scored{Peer: id, Score: -1}
				refBatch[i] = Scored{Peer: id, Score: -1}
			}
			l.Scores(batch)
			ref.Scores(refBatch)
			for i := range batch {
				if batch[i] != refBatch[i] {
					t.Fatalf("seed %d step %d: Scores entry %+v, map %+v", seed, step, batch[i], refBatch[i])
				}
			}
			if got, want := l.Snapshot(), ref.Snapshot(); !maps.Equal(got, want) {
				t.Fatalf("seed %d step %d: Snapshot = %v, map %v", seed, step, got, want)
			}
		}
	}
}

// TestTableGrowth fills a table one ID at a time across several doublings,
// mixing pseudo-peers, dense IDs and the int32 extremes: it stays at most
// half full, and after every insert each stored ID reads its value and an
// unstored one reads zero.
func TestTableGrowth(t *testing.T) {
	ids := []int{-1, -2, math.MaxInt32, math.MinInt32, math.MaxInt64}
	for id := 0; id < 60; id++ {
		ids = append(ids, id*7919-100)
	}
	var tab Table[float64]
	for n, id := range ids {
		*tab.At(id) = float64(n + 1)
		if tab.Len() != n+1 {
			t.Fatalf("after %d inserts Len = %d", n+1, tab.Len())
		}
		if 2*tab.Len() > len(tab.slots) {
			t.Fatalf("%d entries in %d slots: more than half full", tab.Len(), len(tab.slots))
		}
		for k, stored := range ids[:n+1] {
			if got := tab.Get(stored); got != float64(k+1) {
				t.Fatalf("after %d inserts Get(%d) = %g, want %d", n+1, stored, got, k+1)
			}
		}
		if got := tab.Get(12345); got != 0 {
			t.Fatalf("unstored ID reads %g", got)
		}
	}
	// Eight entries fit the first 16 slots; the ninth doubles them.
	var small Table[int]
	for id := 0; id < 9; id++ {
		*small.At(id) = id
		want := 16
		if id == 8 {
			want = 32
		}
		if len(small.slots) != want {
			t.Fatalf("%d entries in %d slots, want %d", id+1, len(small.slots), want)
		}
	}
}

// TestTableZero: zeroing an absent ID — in an empty table or a full one —
// stores nothing, and zeroing a present one keeps its slot, so Range still
// yields it and At reuses it.
func TestTableZero(t *testing.T) {
	var tab Table[Standing]
	tab.Zero(3) // empty table: no-op
	if tab.Len() != 0 || tab.slots != nil {
		t.Fatal("Zero on an empty table stored something")
	}
	tab.At(-1).Valid = 2
	tab.At(math.MinInt32).Invalid = 1
	tab.Zero(7)
	tab.Zero(math.MinInt64)
	if tab.Len() != 2 || tab.Get(7) != (Standing{}) {
		t.Fatalf("Zero of absent IDs stored one: Len %d", tab.Len())
	}
	tab.Zero(-1)
	if tab.Get(-1) != (Standing{}) || tab.Get(math.MinInt32).Invalid != 1 {
		t.Fatalf("Zero(-1) left %+v, or touched MinInt32: %+v", tab.Get(-1), tab.Get(math.MinInt32))
	}
	seen := map[int]Standing{}
	tab.Range(func(id int, s Standing) { seen[id] = s })
	if want := map[int]Standing{-1: {}, math.MinInt32: {Invalid: 1}}; !maps.Equal(seen, want) {
		t.Fatalf("Range = %v, want %v", seen, want)
	}
	tab.At(-1).Valid++
	if tab.Len() != 2 || tab.Get(-1).Valid != 1 {
		t.Fatalf("At after Zero: Len %d, standing %+v", tab.Len(), tab.Get(-1))
	}
}

// TestTableRefusesReservedID: math.MinInt64's key marks an empty slot, so At
// refuses it rather than corrupting the table; reading it yields zero.
func TestTableRefusesReservedID(t *testing.T) {
	var tab Table[float64]
	*tab.At(1) = 5
	if got := tab.Get(math.MinInt64); got != 0 {
		t.Fatalf("Get(MinInt64) = %g", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At(math.MinInt64) did not panic")
		}
	}()
	tab.At(math.MinInt64)
}

// benchPeers and benchCandidates are Figure 4's shape: the ledger holds every
// peer's standing, and a decision reads the 50 neighbours it weighs.
const (
	benchPeers      = 1000
	benchCandidates = 50
)

func benchLedger(b *testing.B) *Ledger {
	l := acceptAll()
	for id := 0; id < benchPeers; id++ {
		if err := l.Credit(attest.Claim(int32(id), -1, 0, int64(id+1))); err != nil {
			b.Fatal(err)
		}
	}
	return l
}

// BenchmarkLedgerScores times the reputation decision's read: 50 candidates
// spread over a 1000-peer ledger, under one lock. scripts/check.sh holds it
// at 0 allocs/op.
func BenchmarkLedgerScores(b *testing.B) {
	l := benchLedger(b)
	entries := make([]Scored, benchCandidates)
	for i := range entries {
		entries[i].Peer = i * benchPeers / benchCandidates
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Scores(entries)
	}
}

// BenchmarkLedgerCredit times one credited piece against a 1000-peer ledger,
// the write every mechanism pays per delivery. scripts/check.sh holds it at
// 0 allocs/op.
func BenchmarkLedgerCredit(b *testing.B) {
	l := benchLedger(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Credit(attest.Claim(int32(i%benchPeers), -1, 0, 256<<10)); err != nil {
			b.Fatal(err)
		}
	}
}
