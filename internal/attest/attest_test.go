package attest

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"
	"testing"
)

// newTestPair returns a directory with two registered peers plus their keys.
func newTestPair(t *testing.T) (*Directory, *Key, *Key) {
	t.Helper()
	dir := NewDirectory()
	a := NewKeyFromSeed(1, 42)
	b := NewKeyFromSeed(2, 42)
	dir.Register(1, a.Identity())
	dir.Register(2, b.Identity())
	return dir, a, b
}

func TestAttestVerifyBothSchemes(t *testing.T) {
	dir, _, b := newTestPair(t)
	v := NewVerifier(dir)
	for _, scheme := range []Scheme{SchemeEd25519, SchemeSession} {
		att := b.Attest(scheme, 1, 7, [32]byte{0xaa}, 4096)
		if att.Sender != 1 || att.Receiver != 2 || att.Seq == 0 {
			t.Fatalf("%v: bad attestation fields: %+v", scheme, att)
		}
		if err := v.Verify(att); err != nil {
			t.Fatalf("%v: genuine receipt rejected: %v", scheme, err)
		}
	}
}

func TestVerifyRejectsTamperedFields(t *testing.T) {
	dir, _, b := newTestPair(t)
	for _, scheme := range []Scheme{SchemeEd25519, SchemeSession} {
		base := b.Attest(scheme, 1, 7, [32]byte{0xaa}, 4096)
		mutations := map[string]func(*Attestation){
			"sender":   func(a *Attestation) { a.Sender = 3 },
			"index":    func(a *Attestation) { a.Index = 8 },
			"hash":     func(a *Attestation) { a.Hash[0] ^= 1 },
			"bytes":    func(a *Attestation) { a.Bytes++ },
			"seq":      func(a *Attestation) { a.Seq++ },
			"sig":      func(a *Attestation) { a.Sig[0] ^= 1 },
			"receiver": func(a *Attestation) { a.Receiver = 1; a.Sender = 2 },
		}
		for name, mutate := range mutations {
			v := NewVerifier(dir)
			att := base
			mutate(&att)
			if err := v.Verify(att); err == nil {
				t.Errorf("%v: tampered %s accepted", scheme, name)
			}
		}
	}
}

func TestVerifyRejectsReplay(t *testing.T) {
	dir, _, b := newTestPair(t)
	v := NewVerifier(dir)
	att := b.Attest(SchemeEd25519, 1, 0, [32]byte{}, 100)
	if err := v.Verify(att); err != nil {
		t.Fatalf("first use rejected: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := v.Verify(att); !errors.Is(err, ErrReplayed) {
			t.Fatalf("replay %d: got %v, want ErrReplayed", i, err)
		}
	}
	// Check is stateless: the spent receipt still audits as genuine.
	if err := v.Check(att); err != nil {
		t.Fatalf("Check after spend: %v", err)
	}
}

func TestVerifyToleratesReorderWithinWindow(t *testing.T) {
	dir, _, b := newTestPair(t)
	v := NewVerifier(dir)
	var atts []Attestation
	for i := 0; i < 10; i++ {
		atts = append(atts, b.Attest(SchemeSession, 1, int32(i), [32]byte{}, 100))
	}
	// Deliver out of order: evens first, then odds.
	for i := 0; i < 10; i += 2 {
		if err := v.Verify(atts[i]); err != nil {
			t.Fatalf("even %d: %v", i, err)
		}
	}
	for i := 1; i < 10; i += 2 {
		if err := v.Verify(atts[i]); err != nil {
			t.Fatalf("odd %d: %v", i, err)
		}
	}
	// And every one of them is now spent.
	for i, att := range atts {
		if err := v.Verify(att); !errors.Is(err, ErrReplayed) {
			t.Fatalf("re-spend %d: got %v", i, err)
		}
	}
}

func TestVerifyRejectsStaleBeyondWindow(t *testing.T) {
	dir, _, b := newTestPair(t)
	v := NewVerifier(dir)
	first := b.Attest(SchemeSession, 1, 0, [32]byte{}, 100)
	var last Attestation
	for i := 0; i < windowSpan+1; i++ {
		last = b.Attest(SchemeSession, 1, 0, [32]byte{}, 100)
	}
	if err := v.Verify(last); err != nil {
		t.Fatalf("latest: %v", err)
	}
	if err := v.Verify(first); !errors.Is(err, ErrStale) {
		t.Fatalf("stale: got %v, want ErrStale", err)
	}
}

func TestVerifyRejectsSelfAttestation(t *testing.T) {
	dir, a, _ := newTestPair(t)
	v := NewVerifier(dir)
	att := a.Attest(SchemeEd25519, a.ID(), 0, [32]byte{}, 100)
	if err := v.Verify(att); !errors.Is(err, ErrSelfAttestation) {
		t.Fatalf("got %v, want ErrSelfAttestation", err)
	}
}

func TestVerifyRejectsUnknownSigner(t *testing.T) {
	dir, _, _ := newTestPair(t)
	v := NewVerifier(dir)
	sybil := NewKeyFromSeed(99, 7) // validly signed, never admitted
	att := sybil.Attest(SchemeEd25519, 1, 0, [32]byte{}, 100)
	if err := v.Verify(att); !errors.Is(err, ErrUnknownSigner) {
		t.Fatalf("got %v, want ErrUnknownSigner", err)
	}
}

func TestVerifyRejectsUnsignedClaim(t *testing.T) {
	dir, _, _ := newTestPair(t)
	v := NewVerifier(dir)
	if err := v.Verify(Claim(1, 2, 0, 100)); !errors.Is(err, ErrUnsigned) {
		t.Fatalf("got %v, want ErrUnsigned", err)
	}
	if err := (AcceptAll{}).Verify(Claim(1, 2, 0, 100)); err != nil {
		t.Fatalf("AcceptAll rejected a claim: %v", err)
	}
}

func TestVerifyRejectsSessionWithoutSecret(t *testing.T) {
	dir, _, b := newTestPair(t)
	// Re-admit peer 2 through TOFU: public key only, no session secret.
	dir2 := NewDirectory()
	if err := dir2.Observe(2, b.Public()); err != nil {
		t.Fatal(err)
	}
	_ = dir
	v := NewVerifier(dir2)
	sessionAtt := b.Attest(SchemeSession, 1, 0, [32]byte{}, 100)
	if err := v.Verify(sessionAtt); !errors.Is(err, ErrNoSession) {
		t.Fatalf("session: got %v, want ErrNoSession", err)
	}
	edAtt := b.Attest(SchemeEd25519, 1, 0, [32]byte{}, 100)
	if err := v.Verify(edAtt); err != nil {
		t.Fatalf("ed25519 under TOFU identity: %v", err)
	}
}

// TestLinkReceiptConvincesOnlyItsAddressee pins SchemeLink's accept rule:
// witness 2 attests to origin 3 that forwarder 1 relayed a piece. Only the
// addressee's CheckLink admits it; every portable path refuses it, the
// forwarder cannot mint it from the pairwise key it shares with the witness,
// and no other scheme's tag passes as a link tag.
func TestLinkReceiptConvincesOnlyItsAddressee(t *testing.T) {
	dir, fwd, wit := newTestPair(t)
	dir.Register(3, NewKeyFromSeed(3, 42).Identity())
	v := NewVerifier(dir)
	att := wit.AttestLink(3, 1, 7, [32]byte{0xaa}, 4096)
	if att.Scheme != SchemeLink || att.Sender != 1 || att.Receiver != 2 || att.Seq == 0 {
		t.Fatalf("bad link receipt fields: %+v", att)
	}
	if err := v.CheckLink(att, 3); err != nil {
		t.Fatalf("addressee rejected a genuine link receipt: %v", err)
	}
	if err := v.CheckLink(att, 4); !errors.Is(err, ErrBadSignature) {
		t.Errorf("another origin: got %v, want ErrBadSignature", err)
	}
	if err := v.CheckLink(att, 1); !errors.Is(err, ErrSelfAttestation) {
		t.Errorf("the forwarder as addressee: got %v, want ErrSelfAttestation", err)
	}
	if err := v.Check(att); !errors.Is(err, ErrLinkScoped) {
		t.Errorf("Check: got %v, want ErrLinkScoped", err)
	}
	if err := v.Verify(att); !errors.Is(err, ErrLinkScoped) {
		t.Errorf("Verify: got %v, want ErrLinkScoped", err)
	}
	tampered := att
	tampered.Index++
	if err := v.CheckLink(tampered, 3); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered index: got %v, want ErrBadSignature", err)
	}

	// The forwarder signs as itself, or relabels what it can obtain: the
	// witness's per-piece session receipt for a plaintext piece it sent.
	minted := fwd.AttestLink(3, 1, 7, [32]byte{0xaa}, 4096)
	minted.Receiver = 2
	if err := v.CheckLink(minted, 3); !errors.Is(err, ErrBadSignature) {
		t.Errorf("forwarder-minted: got %v, want ErrBadSignature", err)
	}
	perPiece := wit.Attest(SchemeSession, 1, 7, [32]byte{0xaa}, 4096)
	if err := v.CheckLink(perPiece, 3); !errors.Is(err, ErrBadScheme) {
		t.Errorf("session receipt: got %v, want ErrBadScheme", err)
	}
	perPiece.Scheme = SchemeLink
	if err := v.CheckLink(perPiece, 3); !errors.Is(err, ErrBadSignature) {
		t.Errorf("session receipt relabelled: got %v, want ErrBadSignature", err)
	}

	tofu := NewDirectory()
	if err := tofu.Observe(2, wit.Public()); err != nil {
		t.Fatal(err)
	}
	if err := NewVerifier(tofu).CheckLink(att, 3); !errors.Is(err, ErrNoSession) {
		t.Errorf("witness known by public key only: got %v, want ErrNoSession", err)
	}
}

func TestDirectorySealAndConflict(t *testing.T) {
	dir := NewDirectory()
	a := NewKeyFromSeed(1, 1)
	if err := dir.Observe(1, a.Public()); err != nil {
		t.Fatal(err)
	}
	// Same key again: fine. Different key for the same ID: conflict.
	if err := dir.Observe(1, a.Public()); err != nil {
		t.Fatalf("re-observe same key: %v", err)
	}
	imposter := NewKeyFromSeed(1, 999)
	if err := dir.Observe(1, imposter.Public()); !errors.Is(err, ErrKeyConflict) {
		t.Fatalf("imposter: got %v, want ErrKeyConflict", err)
	}
	dir.Seal()
	late := NewKeyFromSeed(5, 1)
	if err := dir.Observe(5, late.Public()); !errors.Is(err, ErrSealed) {
		t.Fatalf("sealed observe: got %v, want ErrSealed", err)
	}
	// The authorized path still admits after sealing.
	dir.Register(5, late.Identity())
	if _, ok := dir.Lookup(5); !ok {
		t.Fatal("Register after Seal did not admit")
	}
}

func TestDeterministicKeys(t *testing.T) {
	a1 := NewKeyFromSeed(3, 1234)
	a2 := NewKeyFromSeed(3, 1234)
	if !a1.Public().Equal(a2.Public()) {
		t.Fatal("same (id, seed) produced different keys")
	}
	b := NewKeyFromSeed(4, 1234)
	if a1.Public().Equal(b.Public()) {
		t.Fatal("different ids produced the same key")
	}
}

func TestWindowAdmit(t *testing.T) {
	var w window
	seqs := []struct {
		seq   uint64
		ok    bool
		stale bool
	}{
		{5, true, false},
		{5, false, false},
		{3, true, false},
		{200, true, false},
		{200 - windowSpan + 1, true, false}, // oldest still inside
		{200 - windowSpan, false, true},     // just fell out
		{5, false, true},
	}
	for i, s := range seqs {
		ok, stale := w.admit(s.seq)
		if ok != s.ok || stale != s.stale {
			t.Fatalf("step %d seq %d: got ok=%v stale=%v, want ok=%v stale=%v",
				i, s.seq, ok, stale, s.ok, s.stale)
		}
	}
}

// TestHMACSHA256MatchesCrypto pins the keyed HMAC state the receipt hot path
// reuses to a fresh crypto/hmac reference for every message length up to a
// block: one state reused across all the messages, and a fresh state per
// message, must both give the reference's tag, so reuse carries nothing from
// one tag into the next.
func TestHMACSHA256MatchesCrypto(t *testing.T) {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i*7 + 3)
	}
	msg := make([]byte, 64)
	for i := range msg {
		msg[i] = byte(255 - i)
	}
	reused := newMACState(key)
	for n := 0; n <= len(msg); n++ {
		ref := hmac.New(sha256.New, key)
		ref.Write(msg[:n])
		want := ref.Sum(nil)
		got := reused.sumLocked(msg[:n])
		if !hmac.Equal(got[:], want) {
			t.Fatalf("reused state diverges from crypto/hmac at message length %d", n)
		}
		fresh := newMACState(key).sumLocked(msg[:n])
		if fresh != got {
			t.Fatalf("fresh and reused states differ at message length %d", n)
		}
	}
}

// referenceTag computes att's tag under k's key toward peer in domain with
// fresh crypto/hmac states.
func referenceTag(k *Key, att Attestation, domain byte, peer int32) []byte {
	kdf := hmac.New(sha256.New, k.session[:])
	kdf.Write([]byte{domain, byte(peer >> 24), byte(peer >> 16), byte(peer >> 8), byte(peer)})
	mac := hmac.New(sha256.New, kdf.Sum(nil))
	mac.Write(att.AppendCanonical(nil))
	return mac.Sum(nil)
}

// Session and link receipt tags are HMAC(HMAC(session, domain ‖ peer),
// canonical) bit for bit: pinned against crypto/hmac computed from scratch
// and against fixed bytes, so a receipt signed by one build verifies under
// another.
func TestReceiptTagsPinned(t *testing.T) {
	k := NewKeyFromSeed(2, 42)
	var h [32]byte
	for i := range h {
		h[i] = byte(i)
	}
	for _, c := range []struct {
		att    Attestation
		domain byte
		peer   int32
		want   string
	}{
		{k.Attest(SchemeSession, 1, 7, h, 4096), domainPair, 1, "c59f2b0098d70607092b87b25968bd4344ab5fac63b9b449924bb4ca47e6fb57"},
		{k.AttestLink(3, 1, 7, h, 4096), domainLink, 3, "361e16949240d2034ff9f742d929066861c81fce777c61caeec35a0d8f9a5b77"},
		{k.Attest(SchemeSession, 1, 8, h, 1024), domainPair, 1, "057b15c9486e583d21e668fbbe6f611c1b971b320cd03ef5f72f2ee76881468b"},
	} {
		if got := hex.EncodeToString(c.att.Sig[:macSize]); got != c.want {
			t.Errorf("%s receipt seq %d: tag %s, want %s", c.att.Scheme, c.att.Seq, got, c.want)
		}
		if !hmac.Equal(c.att.Sig[:macSize], referenceTag(k, c.att, c.domain, c.peer)) {
			t.Errorf("%s receipt seq %d: tag differs from crypto/hmac", c.att.Scheme, c.att.Seq)
		}
		if [SigSize - macSize]byte(c.att.Sig[macSize:]) != [SigSize - macSize]byte{} {
			t.Errorf("%s receipt seq %d: bytes past the tag are not zero", c.att.Scheme, c.att.Seq)
		}
	}
}

// One key's MAC states are shared by every goroutine signing toward the same
// peer, and a verifier's by every goroutine checking that pair: concurrent
// signs and checks through the same states must each produce their own
// receipt's tag. Run under -race.
func TestSharedMACStatesConcurrent(t *testing.T) {
	dir, _, b := newTestPair(t)
	dir.Register(3, NewKeyFromSeed(3, 42).Identity())
	v := NewVerifier(dir)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				index := int32(g*1000 + i)
				att := b.Attest(SchemeSession, 1, index, [32]byte{byte(g)}, 4096)
				if !hmac.Equal(att.Sig[:macSize], referenceTag(b, att, domainPair, 1)) {
					t.Errorf("session receipt %d: wrong tag", index)
				}
				if err := v.Check(att); err != nil { // Verify's window would refuse the goroutines' reordering
					t.Errorf("session receipt %d: %v", index, err)
				}
				link := b.AttestLink(3, 1, index, [32]byte{byte(g)}, 4096)
				if !hmac.Equal(link.Sig[:macSize], referenceTag(b, link, domainLink, 3)) {
					t.Errorf("link receipt %d: wrong tag", index)
				}
				if err := v.CheckLink(link, 3); err != nil {
					t.Errorf("link receipt %d: %v", index, err)
				}
			}
		}()
	}
	wg.Wait()
}

// A key rotated through Register takes effect in a verifier that already
// holds state derived from the retired key: the retired key's receipts fail
// Check, Verify and CheckLink, the new key's pass all three — its sequence
// numbers restart at 1 — exactly as at a verifier that never saw the old
// key.
func TestVerifierFollowsKeyRotation(t *testing.T) {
	const sender, witness, origin = 1, 2, 3
	dir := NewDirectory()
	dir.Register(sender, NewKeyFromSeed(sender, 42).Identity())
	retired, next := NewKeyFromSeed(witness, 42), NewKeyFromSeed(witness, 43)
	dir.Register(witness, retired.Identity())
	used := NewVerifier(dir)
	// Derive and use every kind of state the verifier keeps for the pair.
	if err := used.Verify(retired.Attest(SchemeSession, sender, 0, [32]byte{}, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := used.CheckLink(retired.AttestLink(origin, sender, 0, [32]byte{}, 4096), origin); err != nil {
		t.Fatal(err)
	}

	stale := []Attestation{
		retired.Attest(SchemeSession, sender, 1, [32]byte{}, 4096),
		retired.Attest(SchemeEd25519, sender, 1, [32]byte{}, 4096),
		retired.AttestLink(origin, sender, 1, [32]byte{}, 4096),
	}
	dir.Register(witness, next.Identity())
	fresh := []Attestation{
		next.Attest(SchemeSession, sender, 2, [32]byte{}, 4096),
		next.Attest(SchemeEd25519, sender, 2, [32]byte{}, 4096),
		next.AttestLink(origin, sender, 2, [32]byte{}, 4096),
	}
	if fresh[0].Seq != 1 {
		t.Fatalf("a new key's first receipt carries Seq %d, want 1", fresh[0].Seq)
	}
	for _, v := range []struct {
		name string
		v    *Verifier
	}{{"used", used}, {"fresh", NewVerifier(dir)}} {
		checks := []struct {
			name string
			run  func(Attestation) error
		}{
			{"Check", v.v.Check},
			{"CheckLink", func(att Attestation) error { return v.v.CheckLink(att, origin) }},
			{"Verify", v.v.Verify},
		}
		for _, c := range checks {
			for _, att := range stale {
				if (att.Scheme == SchemeLink) != (c.name == "CheckLink") {
					continue
				}
				if err := c.run(att); !errors.Is(err, ErrBadSignature) {
					t.Errorf("%s verifier: %s of the retired key's %v receipt = %v, want ErrBadSignature", v.name, c.name, att.Scheme, err)
				}
			}
			for _, att := range fresh {
				if (att.Scheme == SchemeLink) != (c.name == "CheckLink") {
					continue
				}
				if err := c.run(att); err != nil {
					t.Errorf("%s verifier: %s of the new key's %v receipt = %v", v.name, c.name, att.Scheme, err)
				}
			}
		}
	}
}

// Lookups and verifications run against admissions and rotations of other
// identities: every pair's receipts keep verifying, and each goroutine's
// sequence numbers are spent exactly once. Run under -race.
func TestVerifierConcurrentWithAdmissions(t *testing.T) {
	dir := NewDirectory()
	const receivers = 4
	keys := make([]*Key, receivers)
	for i := range keys {
		keys[i] = NewKeyFromSeed(int32(i+10), 42)
		dir.Register(int32(i+10), keys[i].Identity())
	}
	v := NewVerifier(dir)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range 200 {
			dir.Register(100, NewKeyFromSeed(100, int64(i%2)).Identity())
			if err := dir.Observe(int32(200+i), NewKeyFromSeed(int32(200+i), 1).Public()); err != nil {
				t.Error(err)
			}
		}
	}()
	for _, k := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				att := k.Attest(SchemeSession, 1, int32(i), [32]byte{}, 4096)
				if err := v.Verify(att); err != nil {
					t.Errorf("receiver %d, receipt %d: %v", k.ID(), i, err)
				}
				if err := v.Verify(att); !errors.Is(err, ErrReplayed) {
					t.Errorf("receiver %d, receipt %d replayed: %v, want ErrReplayed", k.ID(), i, err)
				}
			}
		}()
	}
	wg.Wait()
	if got := dir.Len(); got != receivers+1+200 {
		t.Errorf("directory holds %d identities, want %d", got, receivers+1+200)
	}
}

// A verifier keeps state only for pairs with a genuine receipt: forged
// receipts naming arbitrary peers, checked or verified, store nothing, and
// genuine ones racing to be a pair's first all land in the one state that
// is kept.
func TestForgedReceiptsLeaveNoState(t *testing.T) {
	dir, _, b := newTestPair(t)
	v := NewVerifier(dir)
	states := func(m *sync.Map) (n int) {
		m.Range(func(any, any) bool { n++; return true })
		return n
	}
	for peer := int32(1000); peer < 1100; peer++ {
		forged := Attestation{Sender: peer, Receiver: 2, Seq: 1, Scheme: SchemeSession}
		if err := v.Check(forged); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("Check of a forged receipt: %v", err)
		}
		if err := v.Verify(forged); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("Verify of a forged receipt: %v", err)
		}
		forged.Scheme = SchemeLink
		if err := v.CheckLink(forged, peer+1000); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("CheckLink of a forged receipt: %v", err)
		}
	}
	if p, l := states(&v.pairs), states(&v.links); p != 0 || l != 0 {
		t.Errorf("forged receipts left %d pair and %d link states", p, l)
	}

	const racers = 4
	receipts := make([]Attestation, racers)
	for i := range receipts {
		receipts[i] = b.Attest(SchemeSession, 1, int32(i), [32]byte{}, 4096)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, att := range receipts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := v.Verify(att); err != nil {
				t.Errorf("receipt %d: %v", att.Seq, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	for _, att := range receipts {
		if err := v.Verify(att); !errors.Is(err, ErrReplayed) {
			t.Errorf("receipt %d again: %v, want ErrReplayed", att.Seq, err)
		}
	}
	if err := v.CheckLink(b.AttestLink(3, 1, 0, [32]byte{}, 4096), 3); err != nil {
		t.Fatal(err)
	}
	if p, l := states(&v.pairs), states(&v.links); p != 1 || l != 1 {
		t.Errorf("genuine receipts of one pair and one link left %d and %d states, want 1 and 1", p, l)
	}
}
