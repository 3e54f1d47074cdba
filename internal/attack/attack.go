// Package attack models the free-riding behaviours the paper evaluates in
// Section V-B2: passive free-riding (never upload), T-Chain collusion
// (falsely confirming receipt so a colluder's key is released), FairTorrent
// whitewashing (identity resets that erase accumulated deficits), the
// reputation false-praise collusion from Table III, and the large-view
// exploit (connecting to many more neighbors to harvest more altruism).
//
// The attestation adversaries (ForgedAttest, ReplayAttest, SybilAttest)
// target the verified-reputation extension: each fabricates contribution
// evidence that the unverified baseline would credit and a proof-checking
// ledger must refuse. Their helpers mint the exact malicious inputs so
// ledger tests and live-cluster runs exercise identical forgeries.
//
// RePush is a live-wire adversary rather than a simulated one: it speaks
// the node protocol over a real connection and delivers one piece again and
// again, the client that farms credit for upload nobody needed.
package attack

import (
	"fmt"

	"repro/internal/algo"
	"repro/internal/attest"
	"repro/internal/incentive"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// Kind enumerates free-rider behaviours.
type Kind int

// The attack kinds. Passive is the baseline "receive but never upload"
// behaviour; the others augment it. The last three are attestation-layer
// forgeries evaluated against the verified reputation ledger.
const (
	Passive Kind = iota + 1
	Collusion
	Whitewash
	FalsePraise
	ForgedAttest
	ReplayAttest
	SybilAttest
)

// String returns the attack name.
func (k Kind) String() string {
	switch k {
	case Passive:
		return "passive"
	case Collusion:
		return "collusion"
	case Whitewash:
		return "whitewash"
	case FalsePraise:
		return "false-praise"
	case ForgedAttest:
		return "forged-attest"
	case ReplayAttest:
		return "replay-attest"
	case SybilAttest:
		return "sybil-attest"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Plan describes the free-rider population's behaviour for one run.
type Plan struct {
	// Kind is the primary attack behaviour.
	Kind Kind
	// LargeView makes free-riders connect to every peer in the swarm
	// instead of a bounded neighbor set (the large-view exploit [18,19]).
	LargeView bool
	// WhitewashInterval is the seconds between identity resets (Whitewash).
	WhitewashInterval float64
	// PraiseInterval is the seconds between false-praise reports
	// (FalsePraise), and PraiseBytes the fake contribution per report.
	PraiseInterval float64
	PraiseBytes    float64
}

// MostEffective returns the attack the paper assigns to each algorithm in
// Section V-B2: "simple, non-collusive free-riding for most algorithms,
// with additional collusion for T-Chain and whitewashing for FairTorrent."
func MostEffective(a algo.Algorithm) Plan {
	switch a {
	case algo.TChain:
		return Plan{Kind: Collusion}
	case algo.FairTorrent:
		return Plan{Kind: Whitewash, WhitewashInterval: 10}
	default:
		return Plan{Kind: Passive}
	}
}

// WithLargeView returns a copy of the plan with the large-view exploit
// enabled (the Figure 6 configuration).
func (p Plan) WithLargeView() Plan {
	p.LargeView = true
	return p
}

// Normalize fills interval defaults and validates the plan.
func (p Plan) Normalize() (Plan, error) {
	if p.Kind == 0 {
		p.Kind = Passive
	}
	switch p.Kind {
	case Passive, Collusion, Whitewash, FalsePraise,
		ForgedAttest, ReplayAttest, SybilAttest:
	default:
		return p, fmt.Errorf("attack: unknown kind %d", int(p.Kind))
	}
	if p.Kind == Whitewash && p.WhitewashInterval == 0 {
		p.WhitewashInterval = 10
	}
	if p.WhitewashInterval < 0 {
		return p, fmt.Errorf("attack: whitewash interval %g negative", p.WhitewashInterval)
	}
	if p.Kind == FalsePraise {
		if p.PraiseInterval == 0 {
			p.PraiseInterval = 10
		}
		if p.PraiseBytes == 0 {
			p.PraiseBytes = 1 << 20
		}
	}
	if p.PraiseInterval < 0 || p.PraiseBytes < 0 {
		return p, fmt.Errorf("attack: negative praise parameters")
	}
	return p, nil
}

// claimantID is the pseudo-receiver forged unsigned reports name: no real
// counterparty ever confirms a fabricated contribution.
const claimantID int32 = -1

// ForgedClaim fabricates an unsigned contribution report crediting
// beneficiary with bytes — the reputation false-praise collusion from
// Table III expressed in attestation form. The unverified baseline ledger
// (attest.AcceptAll) credits it wholesale; a verifying ledger refuses it
// with attest.ErrUnsigned.
func ForgedClaim(beneficiary int32, bytes float64) attest.Attestation {
	return attest.Claim(beneficiary, claimantID, 0, int64(bytes))
}

// ForgeSignature returns att re-addressed to credit beneficiary while
// keeping its (now wrong) signature — the tampering a man-in-the-middle or
// a colluder editing a captured receipt performs. Verification fails with
// attest.ErrBadSignature.
func ForgeSignature(att attest.Attestation, beneficiary int32) attest.Attestation {
	att.Sender = beneficiary
	att.Sig[0] ^= 0xff // even an unedited copy must not verify for the new sender
	return att
}

// SybilReceipt mints a correctly signed receipt from an identity nobody
// admitted: the Sybil sock-puppet vouching for its operator. The signature
// itself verifies under the sybil's key, but a directory-backed verifier
// refuses it with attest.ErrUnknownSigner — and a *sealed* directory cannot
// be talked into admitting the key at all.
func SybilReceipt(sybil *attest.Key, beneficiary, index int32, bytes int64) attest.Attestation {
	return sybil.Attest(attest.SchemeEd25519, beneficiary, index, [32]byte{}, bytes)
}

// SelfReceipt mints a receipt in which the attacker attests its own
// contribution under its own (possibly even admitted) key. Verification
// fails with attest.ErrSelfAttestation regardless of admission: reputation
// requires a counterparty.
func SelfReceipt(key *attest.Key, index int32, bytes int64) attest.Attestation {
	att := key.Attest(attest.SchemeEd25519, key.ID(), index, [32]byte{}, bytes)
	return att
}

// RePush plays the duplicate-delivery client of Nielson et al., "Building
// Better Incentives for Robustness in BitTorrent": over conn, already dialed
// to the victim, it handshakes as peer id of a numPieces-piece swarm and
// pushes the same piece — index, whose bytes are data — times times. Each
// copy is genuine, hash-verifying upload, and a receiver that receipts
// every delivery (each receipt has a fresh sequence number, so no replay
// window objects) pays tit-for-tat rank, FairTorrent deficit and reputation
// score for one piece's worth of content; one that credits first deliveries
// only pays for the first copy, and nothing if it held the piece already.
// It returns once the last copy is written; the caller closes conn.
func RePush(conn transport.Conn, id, numPieces, index int32, data []byte, times int) error {
	return pushAsSeed(conn, id, numPieces, times, func(int) (int32, []byte) { return index, data })
}

// pushAsSeed handshakes over conn as peer id claiming every one of numPieces
// pieces — so the far side never uploads to it and there is nothing to read
// past the handshake — and pushes the pieces next yields, times of them.
func pushAsSeed(conn transport.Conn, id, numPieces int32, times int, next func(i int) (index int32, data []byte)) error {
	bits := make([]byte, (numPieces+7)/8)
	for i := range bits {
		bits[i] = 0xff
	}
	for _, m := range []protocol.Message{
		protocol.Hello{PeerID: id, NumPieces: numPieces},
		protocol.Bitfield{NumPieces: numPieces, Bits: bits},
	} {
		if err := conn.Send(m); err != nil {
			return fmt.Errorf("attack: handshake as peer %d: %w", id, err)
		}
	}
	for range 2 { // the far side's Hello and Bitfield
		if _, err := conn.Recv(); err != nil {
			return fmt.Errorf("attack: handshake as peer %d: %w", id, err)
		}
	}
	for i := 0; i < times; i++ {
		index, data := next(i)
		if err := conn.Send(protocol.Piece{Index: index, RepaysKeyID: protocol.NoRepay, Data: data}); err != nil {
			return fmt.Errorf("attack: push %d of piece %d: %w", i+1, index, err)
		}
	}
	return nil
}

// FreeRider is the incentive.Strategy a free-riding peer runs: it never
// uploads, regardless of the mechanism the compliant swarm uses.
type FreeRider struct {
	mimic algo.Algorithm
}

var _ incentive.Strategy = (*FreeRider)(nil)

// NewFreeRider returns the no-upload strategy, reporting the mimicked
// algorithm so environments treat the peer as a normal swarm member.
func NewFreeRider(mimic algo.Algorithm) *FreeRider {
	return &FreeRider{mimic: mimic}
}

// Algorithm returns the algorithm the free-rider pretends to run.
func (f *FreeRider) Algorithm() algo.Algorithm { return f.mimic }

// NextReceiver always declines to upload.
func (*FreeRider) NextReceiver(incentive.NodeView) incentive.PeerID { return incentive.NoPeer }

// OnSent is unreachable in practice (free-riders never send) but kept inert.
func (*FreeRider) OnSent(incentive.NodeView, incentive.PeerID, float64) {}

// OnReceived is a no-op: free-riders keep no reciprocity state.
func (*FreeRider) OnReceived(incentive.NodeView, incentive.PeerID, float64) {}

// Forget is a no-op.
func (*FreeRider) Forget(incentive.PeerID) {}
