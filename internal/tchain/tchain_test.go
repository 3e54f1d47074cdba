package tchain

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
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

// TestEscrowConcurrent runs every method of the book from 32 goroutines at
// once (under -race this is the lock's test): each seals for its own
// receiver, confirms, seals again and settles the second seal one of four
// ways. Whatever the interleaving, each goroutine's keys come back to it and
// the book ends empty.
func TestEscrowConcurrent(t *testing.T) {
	e := NewEscrow() // crypto/rand is already concurrency-safe
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(receiver int) {
			defer wg.Done()
			payload := []byte("payload")
			first, err := e.SealFor(payload, receiver, 1, 10)
			if err != nil {
				t.Error(err)
				return
			}
			if idx, held := e.Piece(first.KeyID); !held || idx != 1 {
				t.Errorf("Piece(%d) = %d, %v before anything settled it", first.KeyID, idx, held)
			}
			got, ok := e.Confirm(receiver, first.KeyID)
			if !ok || got.KeyID != first.KeyID || got.Receiver != receiver {
				t.Errorf("Confirm(%d, %d) = %+v, %v, want that key", receiver, first.KeyID, got, ok)
				return
			}
			if plain, err := Open(&first, got.Key); err != nil || !bytes.Equal(plain, payload) {
				t.Errorf("released key does not open its seal: %q, %v", plain, err)
			}
			second, err := e.SealFor(payload, receiver, 2, 10)
			if err != nil {
				t.Error(err)
				return
			}
			switch receiver % 4 {
			case 0:
				swept := e.Sweep(10, func(id int) bool { return id == receiver })
				if len(swept) != 1 || swept[0].KeyID != second.KeyID {
					t.Errorf("Sweep for %d = %+v, want key %d", receiver, swept, second.KeyID)
				}
			case 1:
				e.Forget(receiver)
			case 2:
				e.Revoke(second.KeyID)
			case 3:
				if _, err := e.Release(second.KeyID); err != nil {
					t.Error(err)
				}
			}
			e.Pending()
		}(i)
	}
	wg.Wait()
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after every key was settled", e.Pending())
	}
}

// The TestLedger* tests hold the escrow to what a ledger of debts must do:
// who owes which key, settled once, by the one way that may settle it.

// sealFor books one seal and returns its KeyID.
func sealFor(t *testing.T, e *Escrow, receiver, piece int, due int64) uint64 {
	t.Helper()
	sealed, err := e.SealFor([]byte("data"), receiver, piece, due)
	if err != nil {
		t.Fatal(err)
	}
	return sealed.KeyID
}

func keyIDs(released []Released) []uint64 {
	ids := make([]uint64, 0, len(released))
	for _, k := range released {
		ids = append(ids, k.KeyID)
	}
	slices.Sort(ids)
	return ids
}

// everyone is the Sweep argument of a caller linked to every receiver.
func everyone(int) bool { return true }

// TestLedgerConfirmMultiple: a receiver owing several keys is released one
// per reciprocation, exactly the key each names — the minimum-reciprocation
// client that repays one seal in N gets one key in N. A confirmation naming
// another receiver's key, a replay, or one from a receiver owing nothing
// releases nothing, and earns no trust.
func TestLedgerConfirmMultiple(t *testing.T) {
	e := NewEscrowWithRand(testRand())
	a, b := sealFor(t, e, 42, 1, 10), sealFor(t, e, 42, 2, 10)
	other := sealFor(t, e, 43, 3, 10)
	if k, ok := e.Confirm(5, a); ok {
		t.Errorf("a receiver owing nothing was released %+v", k)
	}
	if k, ok := e.Confirm(43, a); ok {
		t.Errorf("receiver 43 was released receiver 42's key %+v", k)
	}
	if got := e.Sweep(10, everyone); got != nil {
		t.Errorf("Sweep released %+v: a confirmation for a key not owed earned trust", got)
	}
	k, ok := e.Confirm(42, a)
	if !ok || k.KeyID != a || k.Receiver != 42 || k.Piece != 1 {
		t.Fatalf("Confirm(42, %d) = %+v, %v, want that key for piece 1", a, k, ok)
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want receiver 42's other key and receiver 43's", e.Pending())
	}
	if k, ok := e.Confirm(42, a); ok {
		t.Errorf("replayed confirmation released %+v", k)
	}
	if k, ok := e.Confirm(42, b); !ok || k.KeyID != b {
		t.Errorf("Confirm(42, %d) = %+v, %v, want the second key", b, k, ok)
	}
	if _, err := e.Release(other); err != nil {
		t.Errorf("the other receiver's key was disturbed: %v", err)
	}
}

// TestReleaseOrder: the keys one sweep releases leave in ascending KeyID
// order however the book's map iterates; the node sends them in this order,
// so every run of a seed sends them alike.
func TestReleaseOrder(t *testing.T) {
	for run := range 20 {
		e := NewEscrowWithRand(testRand())
		for _, receiver := range []int{42, 43} {
			e.Confirm(receiver, sealFor(t, e, receiver, 0, 10)) // trusted
		}
		var want []uint64
		for i := range 24 {
			receiver := 42 + i%2 // interleaved: neither receiver's KeyIDs are contiguous
			want = append(want, sealFor(t, e, receiver, i, 10))
		}
		if got := releasedIDs(e.Sweep(10, everyone)); !slices.Equal(got, want) {
			t.Fatalf("run %d: Sweep released %v, want %v in that order", run, got, want)
		}
	}
}

// releasedIDs returns the KeyIDs of released in the order they left.
func releasedIDs(released []Released) []uint64 {
	ids := make([]uint64, 0, len(released))
	for _, k := range released {
		ids = append(ids, k.KeyID)
	}
	return ids
}

// TestLedgerTake: Release claims one key and leaves the same
// receiver's others owed; a released key no longer confirms.
func TestLedgerTake(t *testing.T) {
	e := NewEscrowWithRand(testRand())
	a, b := sealFor(t, e, 42, 1, 0), sealFor(t, e, 42, 2, 0)
	if _, err := e.Release(a); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	if k, ok := e.Confirm(42, a); ok {
		t.Errorf("Confirm of the released key %d released %+v", a, k)
	}
	if k, ok := e.Confirm(42, b); !ok || k.KeyID != b {
		t.Errorf("Confirm after Release(%d) = %+v, %v, want key %d", a, k, ok, b)
	}
}

// TestLedgerForget: a departed receiver's keys are revoked, not
// released, and nobody else's are touched; the trust it earned survives, so
// after a reconnect the sweep still covers it.
func TestLedgerForget(t *testing.T) {
	e := NewEscrowWithRand(testRand())
	e.Confirm(42, sealFor(t, e, 42, 1, 0)) // 42 has reciprocated once
	gone := sealFor(t, e, 42, 2, 0)
	kept := sealFor(t, e, 43, 3, 0)
	e.Forget(42)
	if _, err := e.Release(gone); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("forgotten receiver's key still releasable: %v", err)
	}
	if idx, held := e.Piece(kept); !held || idx != 3 {
		t.Errorf("Forget(42) disturbed receiver 43's key: piece %d, held %v", idx, held)
	}
	back := sealFor(t, e, 42, 4, 100)
	if ids := keyIDs(e.Sweep(100, everyone)); !slices.Equal(ids, []uint64{back}) {
		t.Errorf("sweep after reconnect released %v, want [%d]: trust did not survive Forget", ids, back)
	}
}

// TestLedgerCarriesPiece: the piece a key unlocks rides its entry — every
// way out hands back what SealFor recorded, and Piece answers only while
// the key is held, however it was settled.
func TestLedgerCarriesPiece(t *testing.T) {
	e := NewEscrowWithRand(testRand())
	confirmed, swept := sealFor(t, e, 42, 11, 0), sealFor(t, e, 43, 22, 5)
	forgotten, revoked, released := sealFor(t, e, 44, 33, 0), sealFor(t, e, 45, 44, 0), sealFor(t, e, 46, 55, 0)
	for keyID, want := range map[uint64]int{confirmed: 11, swept: 22, forgotten: 33, revoked: 44, released: 55} {
		if got, ok := e.Piece(keyID); !ok || got != want {
			t.Errorf("Piece(%d) = %d, %v, want %d", keyID, got, ok, want)
		}
	}
	if got, ok := e.Confirm(42, confirmed); !ok || got.KeyID != confirmed || got.Piece != 11 {
		t.Errorf("Confirm = %+v, %v, want key %d for piece 11", got, ok, confirmed)
	}
	e.Confirm(43, confirmed) // not a key 43 owes: earns no trust
	if got := e.Sweep(5, everyone); got != nil {
		t.Errorf("Sweep released %+v to a receiver that never reciprocated", got)
	}
	e.Revoke(swept)
	e.Forget(44)
	e.Revoke(revoked)
	if _, err := e.Release(released); err != nil {
		t.Error(err)
	}
	for keyID := uint64(0); keyID <= released+1; keyID++ {
		if idx, ok := e.Piece(keyID); ok {
			t.Errorf("Piece(%d) = %d after the key was settled (or never sealed)", keyID, idx)
		}
	}
}

// TestSweepGrace pins the endgame release on passed-in time: four seals with
// one deadline, to a receiver that has reciprocated before, one that never
// has, one that has but is no longer linked, and one whose seal is confirmed
// before the deadline. Nothing moves a nanosecond early; at the deadline
// exactly the trusted, linked receiver's key is released; the stranger's and
// the departed one's stay owed until Forget settles them.
func TestSweepGrace(t *testing.T) {
	const trusted, stranger, departed, settled = 1, 2, 3, 4
	const due = int64(2e9)
	e := NewEscrowWithRand(testRand())
	for _, id := range []int{trusted, departed, settled} {
		e.Confirm(id, sealFor(t, e, id, 0, 0))
	}
	linked := func(id int) bool { return id != departed }
	keys := map[int]uint64{}
	for _, id := range []int{trusted, stranger, departed, settled} {
		keys[id] = sealFor(t, e, id, 10+id, due)
	}
	if k, ok := e.Confirm(settled, keys[settled]); !ok || k.KeyID != keys[settled] {
		t.Fatalf("Confirm(settled) = %+v, %v, want key %d", k, ok, keys[settled])
	}

	if got := e.Sweep(due-1, linked); got != nil || e.Pending() != 3 {
		t.Fatalf("a sweep one nanosecond early released %+v, %d keys left of 3", got, e.Pending())
	}
	got := e.Sweep(due, linked)
	if len(got) != 1 || got[0].KeyID != keys[trusted] || got[0].Receiver != trusted || got[0].Piece != 10+trusted {
		t.Fatalf("Sweep at the deadline = %+v, want key %d of receiver %d", got, keys[trusted], trusted)
	}
	if got := e.Sweep(due+int64(time.Hour), linked); got != nil {
		t.Errorf("a later sweep released %+v: strangers get no grace, the unlinked wait for Forget", got)
	}
	for _, id := range []int{stranger, departed} {
		if _, held := e.Piece(keys[id]); !held {
			t.Errorf("receiver %d's key left the book without a release", id)
		}
	}
	e.Forget(departed)
	e.Forget(stranger)
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after the last receivers unlinked", e.Pending())
	}
}

// TestEscrowSteadyStream: 10,000 seal/sweep steps, each seal settled one of
// the ways a live node settles it — confirmed, swept at its deadline,
// cancelled, or revoked with its receiver. The book keeps nothing for a key
// that has left it: only the current grace period's seals are ever held.
func TestEscrowSteadyStream(t *testing.T) {
	const grace, perGrace = int64(2e9), 64
	e := NewEscrowWithRand(testRand())
	e.Confirm(1, sealFor(t, e, 1, 0, 0)) // receiver 1 is trusted: the sweep settles what it is left owing
	for i, now := 0, int64(0); i < 10_000; i, now = i+1, now+grace/perGrace {
		switch i % 4 {
		case 0:
			sealFor(t, e, 1, i, now+grace) // left for the sweep
		case 1:
			e.Confirm(2, sealFor(t, e, 2, i, now+grace))
		case 2:
			e.Revoke(sealFor(t, e, 3, i, now+grace))
		case 3:
			sealFor(t, e, 4, i, now+grace)
			e.Forget(4)
		}
		e.Sweep(now, everyone)
		if held := e.Pending(); held > perGrace/4+1 {
			t.Fatalf("step %d: %d keys held, want at most the %d still inside their grace", i, held, perGrace/4+1)
		}
	}
	if e.Sweep(int64(10_000)*grace, everyone); e.Pending() != 0 {
		t.Errorf("Pending = %d after a sweep past every deadline", e.Pending())
	}
}

// TestEscrowProperty drives seeded random seal / cancel / confirm / sweep /
// forget sequences against a model and holds the book to its invariants:
// every key leaves at most once, and only by a way that may take it (a
// sweep never releases to a receiver that has not confirmed, or is not
// linked, or before the deadline); Pending is seals minus releases, cancels
// and revocations; and forgetting every receiver empties the book.
func TestEscrowProperty(t *testing.T) {
	const receivers = 6
	type seal struct {
		receiver int
		due      int64
		gone     bool
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEscrowWithRand(rng)
		seals := map[uint64]*seal{}
		confirmed := map[int]bool{}
		live := 0
		leave := func(how string, keyID uint64) *seal {
			s := seals[keyID]
			if s == nil || s.gone {
				t.Fatalf("seed %d: %s took key %d, which was never sealed or had already left", seed, how, keyID)
			}
			s.gone = true
			live--
			return s
		}
		var now int64
		for step := 0; step < 2000; step++ {
			now += rng.Int63n(50)
			receiver := rng.Intn(receivers)
			switch rng.Intn(6) {
			case 0, 1:
				due := now + rng.Int63n(200)
				seals[sealFor(t, e, receiver, step, due)] = &seal{receiver: receiver, due: due}
				live++
			case 2: // cancel a key, held or not
				keyID := uint64(rng.Intn(len(seals) + 1))
				if s := seals[keyID]; s != nil && !s.gone {
					leave("Revoke", keyID)
				}
				e.Revoke(keyID)
			case 3: // confirm a key, held or not, owed by receiver or not
				keyID := uint64(rng.Intn(len(seals) + 1))
				s := seals[keyID]
				owes := s != nil && !s.gone && s.receiver == receiver
				k, ok := e.Confirm(receiver, keyID)
				if ok != owes || ok && (k.KeyID != keyID || k.Receiver != receiver) {
					t.Fatalf("seed %d: Confirm(%d, %d) = %+v, %v; the model says owed %v", seed, receiver, keyID, k, ok, owes)
				}
				if ok {
					leave("Confirm", keyID)
					confirmed[receiver] = true
				}
			case 4:
				unlinked := rng.Intn(receivers)
				for _, k := range e.Sweep(now, func(id int) bool { return id != unlinked }) {
					s := leave("Sweep", k.KeyID)
					if !confirmed[s.receiver] || s.receiver == unlinked || s.due > now {
						t.Fatalf("seed %d: sweep at %d (receiver %d unlinked) released key %d: receiver %d, confirmed %v, due %d",
							seed, now, unlinked, k.KeyID, s.receiver, confirmed[s.receiver], s.due)
					}
				}
			case 5:
				e.Forget(receiver)
				for keyID, s := range seals {
					if s.receiver == receiver && !s.gone {
						leave("Forget", keyID)
					}
				}
			}
			if got := e.Pending(); got != live {
				t.Fatalf("seed %d step %d: Pending = %d, want %d (seals minus releases, cancels and revocations)", seed, step, got, live)
			}
		}
		for keyID, s := range seals {
			if _, held := e.Piece(keyID); held == s.gone {
				t.Fatalf("seed %d: key %d held = %v, model says gone = %v", seed, keyID, held, s.gone)
			}
		}
		for id := 0; id < receivers; id++ {
			e.Forget(id)
		}
		if e.Pending() != 0 {
			t.Fatalf("seed %d: %d keys left after forgetting every receiver", seed, e.Pending())
		}
	}
}

// TestSealForByValue: a seal returned by value opens with the key its
// receiver is released, and the one key‖nonce read draws what two reads —
// key first, then nonce — drew from a seeded reader, seal after seal.
func TestSealForByValue(t *testing.T) {
	const seed = 7
	want := rand.New(rand.NewSource(seed))
	e := NewEscrowWithRand(rand.New(rand.NewSource(seed)))
	plaintext := bytes.Repeat([]byte("piece"), 100)
	for i := 0; i < 3; i++ {
		var key Key
		var nonce [NonceSize]byte
		want.Read(key[:])
		want.Read(nonce[:])
		sealed, err := e.SealFor(plaintext, 42, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		released, ok := e.Confirm(42, sealed.KeyID)
		if !ok || released.Key != key || sealed.Nonce != nonce {
			t.Fatalf("seal %d: released %+v with nonce %x, want key %x and nonce %x", i, released, sealed.Nonce, key, nonce)
		}
		if got, err := Open(&sealed, key); err != nil || !bytes.Equal(got, plaintext) {
			t.Fatalf("seal %d does not open: %v", i, err)
		}
	}
}

// TestOpenIntoLeavesSealAlone: OpenInto only reads the ciphertext — a sealed
// buffer may still be queued for another peer — and writes the plaintext
// into dst's storage when it is large enough, allocating only the cipher
// and its CTR stream.
func TestOpenIntoLeavesSealAlone(t *testing.T) {
	e := NewEscrowWithRand(testRand())
	plaintext := bytes.Repeat([]byte{0x5a}, 4096)
	sealed, err := e.Seal(plaintext)
	if err != nil {
		t.Fatal(err)
	}
	key, err := e.Release(sealed.KeyID)
	if err != nil {
		t.Fatal(err)
	}
	ciphertext := bytes.Clone(sealed.Ciphertext)
	dst := make([]byte, 0, len(plaintext))
	got, err := OpenInto(dst, sealed, key)
	if err != nil || !bytes.Equal(got, plaintext) {
		t.Fatalf("OpenInto = %v, plaintext intact %v", err, bytes.Equal(got, plaintext))
	}
	if &got[0] != &dst[:1][0] {
		t.Error("OpenInto allocated though dst had the capacity")
	}
	if !bytes.Equal(sealed.Ciphertext, ciphertext) {
		t.Error("OpenInto wrote into the sealed buffer")
	}
	if allocs := testing.AllocsPerRun(100, func() { OpenInto(dst, sealed, key) }); allocs > 2 {
		t.Errorf("OpenInto into a large enough dst: %.0f allocs, want at most 2 (cipher, CTR)", allocs)
	}
}

// BenchmarkSealFor seals and settles one 4 KB piece: the ciphertext, the
// cipher and its CTR stream are the only allocations (check.sh: ≤ 3).
func BenchmarkSealFor(b *testing.B) {
	e := NewEscrow()
	plaintext := make([]byte, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sealed, err := e.SealFor(plaintext, 1, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		e.Revoke(sealed.KeyID)
	}
}

// BenchmarkOpenInto opens one 4 KB seal into a reused buffer: the cipher
// and its CTR stream are the only allocations (check.sh: ≤ 2).
func BenchmarkOpenInto(b *testing.B) {
	e := NewEscrow()
	sealed, err := e.Seal(make([]byte, 4096))
	if err != nil {
		b.Fatal(err)
	}
	key, err := e.Release(sealed.KeyID)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = OpenInto(dst, sealed, key); err != nil {
			b.Fatal(err)
		}
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
