package tchain

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func testRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestSealOpenRoundTrip(t *testing.T) {
	e := NewEscrowWithRand(testRand())
	plaintext := []byte("the piece payload, long enough to span blocks: 0123456789abcdef0123456789abcdef")
	sealed, err := e.Seal(plaintext)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(sealed.Ciphertext, plaintext) {
		t.Fatal("ciphertext equals plaintext")
	}
	key, err := e.Release(sealed.KeyID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(sealed, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plaintext) {
		t.Error("round trip failed")
	}
}

func TestReleaseOnce(t *testing.T) {
	e := NewEscrowWithRand(testRand())
	sealed, err := e.Seal([]byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Release(sealed.KeyID); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Release(sealed.KeyID); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("second release err = %v, want ErrUnknownKey", err)
	}
	if _, err := e.Release(9999); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("unknown release err = %v", err)
	}
}

func TestRevoke(t *testing.T) {
	e := NewEscrowWithRand(testRand())
	sealed, _ := e.Seal([]byte("data"))
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Revoke(sealed.KeyID)
	if e.Pending() != 0 {
		t.Errorf("Pending after revoke = %d", e.Pending())
	}
	if _, err := e.Release(sealed.KeyID); !errors.Is(err, ErrUnknownKey) {
		t.Error("revoked key still releasable")
	}
}

func TestWrongKeyFailsHashCheck(t *testing.T) {
	e := NewEscrowWithRand(testRand())
	plaintext := []byte("important piece data that must verify")
	wantHash := sha256.Sum256(plaintext)
	sealed, _ := e.Seal(plaintext)
	var wrong Key
	wrong[0] = 0xff
	got, err := Open(sealed, wrong)
	if err != nil {
		t.Fatal(err)
	}
	if sha256.Sum256(got) == wantHash {
		t.Error("wrong key produced verifying plaintext")
	}
}

func TestDistinctKeysPerSeal(t *testing.T) {
	e := NewEscrowWithRand(testRand())
	s1, _ := e.Seal([]byte("same data"))
	s2, _ := e.Seal([]byte("same data"))
	if s1.KeyID == s2.KeyID {
		t.Error("key IDs collide")
	}
	if bytes.Equal(s1.Ciphertext, s2.Ciphertext) {
		t.Error("same ciphertext under supposedly fresh keys")
	}
	k1, _ := e.Release(s1.KeyID)
	k2, _ := e.Release(s2.KeyID)
	if k1 == k2 {
		t.Error("keys identical")
	}
}

func TestSealEmpty(t *testing.T) {
	e := NewEscrowWithRand(testRand())
	if _, err := e.Seal(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty seal err = %v", err)
	}
	if _, err := Open(nil, Key{}); !errors.Is(err, ErrEmpty) {
		t.Errorf("nil open err = %v", err)
	}
}

func TestEscrowConcurrent(t *testing.T) {
	e := NewEscrow() // crypto/rand is already concurrency-safe
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sealed, err := e.Seal([]byte("payload"))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := e.Release(sealed.KeyID); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after all released", e.Pending())
	}
}

func TestLedgerConfirmDirect(t *testing.T) {
	l := NewReciprocationLedger()
	l.Demand(7, 42, Obligation{Kind: Direct, Target: 1}) // receiver 42 owes peer 1 (us)
	if got := l.Outstanding(); got != 1 {
		t.Fatalf("Outstanding = %d", got)
	}
	// Wrong witness: nothing released.
	if got := l.Confirm(99, 42); got != nil {
		t.Errorf("wrong witness released %v", got)
	}
	// Wrong sender: nothing released.
	if got := l.Confirm(1, 5); got != nil {
		t.Errorf("wrong sender released %v", got)
	}
	got := l.Confirm(1, 42)
	if len(got) != 1 || got[0].KeyID != 7 {
		t.Fatalf("Confirm = %v, want key 7", got)
	}
	if l.Outstanding() != 0 {
		t.Error("demand not cleared")
	}
	// Replay confirmation releases nothing.
	if got := l.Confirm(1, 42); got != nil {
		t.Errorf("replay released %v", got)
	}
}

func TestLedgerConfirmMultiple(t *testing.T) {
	l := NewReciprocationLedger()
	l.Demand(1, 42, Obligation{Kind: Indirect, Target: 9})
	l.Demand(2, 42, Obligation{Kind: Indirect, Target: 9})
	l.Demand(3, 42, Obligation{Kind: Indirect, Target: 8}) // different target
	got := l.Confirm(9, 42)
	if len(got) != 2 {
		t.Fatalf("Confirm = %v, want two keys", got)
	}
	if l.Outstanding() != 1 {
		t.Errorf("Outstanding = %d, want 1", l.Outstanding())
	}
}

func TestLedgerForget(t *testing.T) {
	l := NewReciprocationLedger()
	l.Demand(1, 42, Obligation{Kind: Direct, Target: 1})
	l.Demand(2, 43, Obligation{Kind: Direct, Target: 1})
	revoked := l.Forget(42)
	if len(revoked) != 1 || revoked[0] != 1 {
		t.Fatalf("Forget = %v", revoked)
	}
	if l.Outstanding() != 1 {
		t.Errorf("Outstanding = %d", l.Outstanding())
	}
}

func TestLedgerTake(t *testing.T) {
	l := NewReciprocationLedger()
	l.Demand(5, 42, Obligation{Kind: Indirect, Target: AnyPeer})
	l.Demand(6, 42, Obligation{Kind: Indirect, Target: AnyPeer})
	if ob, ok := l.Take(5); !ok || ob.KeyID != 5 {
		t.Fatalf("Take(5) = %v, %v for outstanding demand", ob, ok)
	}
	if _, ok := l.Take(5); ok {
		t.Fatal("Take(5) succeeded twice")
	}
	if l.Outstanding() != 1 {
		t.Errorf("Outstanding = %d, want 1", l.Outstanding())
	}
	// A taken demand no longer confirms.
	if got := l.Confirm(9, 42); len(got) != 1 || got[0].KeyID != 6 {
		t.Errorf("Confirm = %v, want key 6", got)
	}
	if _, ok := l.Take(999); ok {
		t.Error("Take of unknown key succeeded")
	}
}

// TestLedgerCarriesPiece: the piece index a key unlocks rides its demand —
// Confirm and Take hand back what Demand recorded, and Piece answers only
// while the demand is outstanding, however it was settled.
func TestLedgerCarriesPiece(t *testing.T) {
	l := NewReciprocationLedger()
	l.Demand(1, 42, Obligation{Kind: Indirect, Target: AnyPeer, Piece: 11})
	l.Demand(2, 43, Obligation{Kind: Indirect, Target: AnyPeer, Piece: 22})
	l.Demand(3, 44, Obligation{Kind: Indirect, Target: AnyPeer, Piece: 33})
	for keyID, want := range map[uint64]int{1: 11, 2: 22, 3: 33} {
		if got, ok := l.Piece(keyID); !ok || got != want {
			t.Errorf("Piece(%d) = %d, %v, want %d", keyID, got, ok, want)
		}
	}
	if got := l.Confirm(9, 42); len(got) != 1 || got[0].KeyID != 1 || got[0].Piece != 11 {
		t.Errorf("Confirm = %v, want key 1 for piece 11", got)
	}
	if ob, ok := l.Take(2); !ok || ob.Piece != 22 {
		t.Errorf("Take(2) = %v, %v, want piece 22", ob, ok)
	}
	l.Forget(44)
	for keyID := uint64(1); keyID <= 4; keyID++ {
		if idx, ok := l.Piece(keyID); ok {
			t.Errorf("Piece(%d) = %d after the demand was settled (or never made)", keyID, idx)
		}
	}
}

func TestConfirmAnyPeerWildcard(t *testing.T) {
	l := NewReciprocationLedger()
	l.Demand(1, 42, Obligation{Kind: Indirect, Target: AnyPeer})
	if got := l.Confirm(12345, 42); len(got) != 1 {
		t.Errorf("wildcard confirm = %v", got)
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("rng broken") }

func TestSealFailsWhenRandomnessFails(t *testing.T) {
	e := NewEscrowWithRand(failingReader{})
	if _, err := e.Seal([]byte("data")); err == nil {
		t.Fatal("Seal succeeded without randomness")
	}
}
