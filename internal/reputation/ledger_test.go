package reputation

import (
	"errors"
	"maps"
	"sync"
	"testing"

	"repro/internal/attest"
)

// acceptAll is shorthand for the unverified-baseline ledger.
func acceptAll() *Ledger { return NewLedger(attest.AcceptAll{}) }

func mustCredit(t *testing.T, l *Ledger, att attest.Attestation) {
	t.Helper()
	if err := l.Credit(att); err != nil {
		t.Fatalf("Credit: %v", err)
	}
}

func TestCreditAndScore(t *testing.T) {
	l := acceptAll()
	if l.Score(1) != 0 {
		t.Error("unknown peer has nonzero score")
	}
	mustCredit(t, l, attest.Claim(1, 9, 0, 100))
	mustCredit(t, l, attest.Claim(1, 9, 1, 50))
	mustCredit(t, l, attest.Claim(2, 9, 0, 25))
	if got := l.Score(1); got != 150 {
		t.Errorf("Score(1) = %g", got)
	}
	want := map[int]Standing{1: {Score: 150, Valid: 2}, 2: {Score: 25, Valid: 1}}
	if got := l.Snapshot(); !maps.Equal(got, want) {
		t.Errorf("Snapshot = %v, want %v", got, want)
	}
}

func TestCreditRejectsNonPositive(t *testing.T) {
	l := acceptAll()
	if err := l.Credit(attest.Claim(1, 9, 0, 0)); !errors.Is(err, ErrNonPositive) {
		t.Errorf("zero bytes: got %v", err)
	}
	if err := l.Credit(attest.Claim(1, 9, 0, -10)); !errors.Is(err, ErrNonPositive) {
		t.Errorf("negative bytes: got %v", err)
	}
	if l.Score(1) != 0 {
		t.Error("non-positive credit recorded")
	}
}

func TestAcceptAllCreditsUnsignedClaims(t *testing.T) {
	// The paper's modelled vulnerability: under the unverified baseline a
	// bare claim is indistinguishable from an observed upload.
	l := acceptAll()
	mustCredit(t, l, attest.Claim(7, 3, 0, 1000))
	if l.Score(7) != 1000 {
		t.Error("false praise not recorded — the modelled vulnerability is gone from the baseline")
	}
}

func TestVerifiedLedgerCreditsOnlyProofs(t *testing.T) {
	dir := attest.NewDirectory()
	alice := attest.NewKeyFromSeed(1, 7)
	bob := attest.NewKeyFromSeed(2, 7)
	dir.Register(1, alice.Identity())
	dir.Register(2, bob.Identity())
	l := NewLedger(attest.NewVerifier(dir))

	// A genuine receipt signed by bob credits alice.
	genuine := bob.Attest(attest.SchemeEd25519, 1, 0, [32]byte{}, 500)
	mustCredit(t, l, genuine)
	if l.Score(1) != 500 {
		t.Fatalf("Score(1) = %g, want 500", l.Score(1))
	}

	// A bare claim is rejected and leaves no score.
	if err := l.Credit(attest.Claim(3, 2, 0, 900)); !errors.Is(err, attest.ErrUnsigned) {
		t.Fatalf("claim: got %v", err)
	}
	// A replay is rejected.
	if err := l.Credit(genuine); !errors.Is(err, attest.ErrReplayed) {
		t.Fatalf("replay: got %v", err)
	}
	if l.Score(1) != 500 {
		t.Fatalf("replay moved the score: %g", l.Score(1))
	}

	snap := l.Snapshot()
	if s := snap[1]; s.Score != 500 || s.Valid != 1 || s.Invalid != 1 {
		t.Errorf("standing[1] = %+v, want {500 1 1}", s)
	}
	if s := snap[3]; s.Score != 0 || s.Invalid != 1 {
		t.Errorf("standing[3] = %+v, want zero score, one invalid", s)
	}
}

func TestResetModelsWhitewashing(t *testing.T) {
	l := acceptAll()
	mustCredit(t, l, attest.Claim(3, 9, 0, 500))
	l.Reset(3)
	if l.Score(3) != 0 {
		t.Error("Reset did not clear the score")
	}
	if len(l.Snapshot()) != 0 {
		t.Error("Reset left standings behind")
	}
	l.Reset(99) // unknown peer: no-op
}

func TestSnapshotIsCopy(t *testing.T) {
	l := acceptAll()
	mustCredit(t, l, attest.Claim(1, 9, 0, 10))
	snap := l.Snapshot()
	snap[1] = Standing{Score: 999}
	if l.Score(1) != 10 {
		t.Error("Snapshot aliases internal state")
	}
	if len(snap) != 1 {
		t.Errorf("snapshot size %d", len(snap))
	}
}

// TestScoresEqualsScore: the one-lock batch read returns exactly what Score
// returns per peer — unknown, reset and pseudo-peers read 0, and whatever the
// caller left in the Score field is overwritten.
func TestScoresEqualsScore(t *testing.T) {
	l := acceptAll()
	mustCredit(t, l, attest.Claim(1, 9, 0, 900))
	mustCredit(t, l, attest.Claim(2, 9, 0, 100))
	mustCredit(t, l, attest.Claim(2, 9, 1, 1))
	mustCredit(t, l, attest.Claim(5, 9, 0, 7))
	l.Reset(5)
	entries := []Scored{{Peer: 2, Score: -1}, {Peer: 7, Score: 42}, {Peer: 1}, {Peer: -2, Score: 3}, {Peer: 5, Score: 7}, {Peer: 2}}
	l.Scores(entries)
	for _, e := range entries {
		if want := l.Score(e.Peer); e.Score != want {
			t.Errorf("Scores gave peer %d %g, Score gives %g", e.Peer, e.Score, want)
		}
	}
	if entries[1].Score != 0 || entries[3].Score != 0 || entries[4].Score != 0 {
		t.Errorf("unknown, pseudo and reset peers must read 0: %+v", entries)
	}
	l.Scores(nil) // no candidates: no-op
}

func TestLedgerConcurrent(t *testing.T) {
	l := acceptAll()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			batch := make([]Scored, 16)
			for j := 0; j < 100; j++ {
				if err := l.Credit(attest.Claim(int32(id), -1, int32(j), 1)); err != nil {
					t.Errorf("Credit: %v", err)
					return
				}
				l.Score(id)
				l.Snapshot()
				for k := range batch {
					batch[k].Peer = k
				}
				l.Scores(batch)
				// Only this goroutine credits id, so the batch read must see
				// exactly the j+1 bytes credited so far.
				if got := batch[id].Score; got != float64(j+1) {
					t.Errorf("Scores read %g for peer %d after %d credits", got, id, j+1)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	snap := l.Snapshot()
	for id := 0; id < 16; id++ {
		if s := snap[id]; s != (Standing{Score: 100, Valid: 100}) {
			t.Errorf("standing[%d] = %+v, want {100 100 0}", id, s)
		}
	}
	if len(snap) != 16 {
		t.Errorf("snapshot holds %d peers, want 16", len(snap))
	}
}
