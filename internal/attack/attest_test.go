package attack

import (
	"errors"
	"testing"

	"repro/internal/attest"
	"repro/internal/reputation"
)

// verifiedWorld builds the proof-checking setup the attestation adversaries
// are evaluated against: two honest admitted identities, a sealed
// directory, and a ledger that credits only verifying receipts. The
// AcceptAll baseline alongside it shows what the same forgery earns in the
// paper's unverified trust model.
func verifiedWorld(t *testing.T) (honest1, honest2 *attest.Key, verified, baseline *reputation.Ledger) {
	t.Helper()
	honest1 = attest.NewKeyFromSeed(1, 101)
	honest2 = attest.NewKeyFromSeed(2, 102)
	dir := attest.NewDirectory()
	dir.Register(1, honest1.Identity())
	dir.Register(2, honest2.Identity())
	dir.Seal()
	return honest1, honest2,
		reputation.NewLedger(attest.NewVerifier(dir)),
		reputation.NewLedger(attest.AcceptAll{})
}

// TestAdversariesEarnZeroVerifiedReputation drives every attestation-layer
// forgery through both trust models: the unverified baseline credits each
// fabricated contribution (the Table III susceptibility), while the
// verifying ledger refuses it with the precise error and records the
// attempt as an invalid proof — the adversary's score stays exactly zero.
func TestAdversariesEarnZeroVerifiedReputation(t *testing.T) {
	const stolen = 4096
	cases := []struct {
		name    string
		kind    Kind
		mint    func(t *testing.T, honest1, honest2 *attest.Key) attest.Attestation
		wantErr error
	}{
		{
			name: "forged unsigned claim", kind: ForgedAttest,
			mint: func(t *testing.T, _, _ *attest.Key) attest.Attestation {
				return ForgedClaim(1, stolen)
			},
			wantErr: attest.ErrUnsigned,
		},
		{
			name: "captured receipt re-addressed", kind: ForgedAttest,
			mint: func(t *testing.T, _, honest2 *attest.Key) attest.Attestation {
				real := honest2.Attest(attest.SchemeEd25519, 1, 0, [32]byte{}, stolen)
				return ForgeSignature(real, 7)
			},
			wantErr: attest.ErrBadSignature,
		},
		{
			name: "sybil sock-puppet vouches", kind: SybilAttest,
			mint: func(t *testing.T, _, _ *attest.Key) attest.Attestation {
				sybil := attest.NewKeyFromSeed(66, 666)
				return SybilReceipt(sybil, 1, 0, stolen)
			},
			wantErr: attest.ErrUnknownSigner,
		},
		{
			name: "self-attestation under admitted key", kind: SybilAttest,
			mint: func(t *testing.T, honest1, _ *attest.Key) attest.Attestation {
				return SelfReceipt(honest1, 0, stolen)
			},
			wantErr: attest.ErrSelfAttestation,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			honest1, honest2, verified, baseline := verifiedWorld(t)
			att := tc.mint(t, honest1, honest2)
			beneficiary := int(att.Sender)

			if err := baseline.Credit(att); err != nil {
				t.Fatalf("unverified baseline refused the forgery: %v", err)
			}
			if got := baseline.Score(beneficiary); got != stolen {
				t.Fatalf("baseline credited %g, want %d (the attack must pay in the trust model)", got, stolen)
			}

			if err := verified.Credit(att); !errors.Is(err, tc.wantErr) {
				t.Fatalf("verified ledger returned %v, want %v", err, tc.wantErr)
			}
			snap := verified.Snapshot()
			for peer, s := range snap {
				if s.Score != 0 {
					t.Errorf("verified ledger scored peer %d %g after forgery, want 0", peer, s.Score)
				}
			}
			s := snap[beneficiary]
			if s.Score != 0 || s.Valid != 0 || s.Invalid != 1 {
				t.Errorf("beneficiary standing = %+v, want zero score, zero valid, one invalid", s)
			}
		})
	}
}

// TestReplayedReceiptCreditsOnce replays a perfectly genuine receipt: the
// first presentation credits, every repeat is refused by the sequence
// window, so double-spending a contribution is impossible.
func TestReplayedReceiptCreditsOnce(t *testing.T) {
	const size = 4096
	_, honest2, verified, _ := verifiedWorld(t)
	att := honest2.Attest(attest.SchemeEd25519, 1, 3, [32]byte{}, size)

	if err := verified.Credit(att); err != nil {
		t.Fatalf("genuine receipt refused: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := verified.Credit(att); !errors.Is(err, attest.ErrReplayed) {
			t.Fatalf("replay %d returned %v, want %v", i+1, err, attest.ErrReplayed)
		}
	}
	if got := verified.Score(1); got != size {
		t.Errorf("score after replays = %g, want %d (credited exactly once)", got, size)
	}
	s := verified.Snapshot()[1]
	if s.Valid != 1 || s.Invalid != 3 {
		t.Errorf("standing = %+v, want 1 valid / 3 invalid", s)
	}
}
