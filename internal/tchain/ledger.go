package tchain

import (
	"sync"
)

// ObligationKind distinguishes direct from indirect reciprocation.
type ObligationKind int

// The two reciprocation modes (Section III-A).
const (
	Direct ObligationKind = iota + 1
	Indirect
)

// AnyPeer is the wildcard Target: any witness's confirmation satisfies the
// demand. The live node uses it because the receiver, not the sender,
// picks the indirect-reciprocation target there.
const AnyPeer = -1

// Obligation records what a receiver owes for one sealed piece: upload a
// piece to Target (the original sender for Direct, a designated third peer
// for Indirect, or AnyPeer) before the key for KeyID is released.
type Obligation struct {
	KeyID  uint64
	Kind   ObligationKind
	Target int // peer ID that must receive the reciprocation, or AnyPeer
	Piece  int // index of the sealed piece the key unlocks
}

// demand is one outstanding obligation and the receiver that owes it.
type demand struct {
	ob       Obligation
	receiver int
}

// ReciprocationLedger is the sender-side record of outstanding
// reciprocation demands: which receiver owes what for which escrowed key,
// and which piece that key unlocks. When the (possibly third-party)
// confirmation arrives, the key becomes releasable. Safe for concurrent use.
type ReciprocationLedger struct {
	mu      sync.Mutex
	demands map[uint64]demand // keyID -> what we asked for, and of whom
}

// NewReciprocationLedger returns an empty ledger.
func NewReciprocationLedger() *ReciprocationLedger {
	return &ReciprocationLedger{demands: make(map[uint64]demand)}
}

// Demand records that `receiver` owes the given obligation for keyID.
func (l *ReciprocationLedger) Demand(keyID uint64, receiver int, ob Obligation) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ob.KeyID = keyID
	l.demands[keyID] = demand{ob: ob, receiver: receiver}
}

// Confirm reports a reciprocation observed: `witness` says it received a
// piece from `from`. It returns the obligations now met — every pending
// demand whose receiver is `from` and whose target is `witness` — whose
// keys are releasable.
func (l *ReciprocationLedger) Confirm(witness, from int) []Obligation {
	l.mu.Lock()
	defer l.mu.Unlock()
	var met []Obligation
	for keyID, d := range l.demands {
		if d.receiver == from && (d.ob.Target == witness || d.ob.Target == AnyPeer) {
			met = append(met, d.ob)
			delete(l.demands, keyID)
		}
	}
	return met
}

// Take removes and returns the demand for keyID if it is still
// outstanding. Used by the endgame key-release fallback to claim exactly
// one demand without disturbing others.
func (l *ReciprocationLedger) Take(keyID uint64) (Obligation, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d, ok := l.demands[keyID]
	delete(l.demands, keyID)
	return d.ob, ok
}

// Piece returns the piece index keyID's outstanding demand was recorded
// for; false once the demand is confirmed, taken or forgotten — a receipt
// naming a settled key matches nothing.
func (l *ReciprocationLedger) Piece(keyID uint64) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d, ok := l.demands[keyID]
	return d.ob.Piece, ok
}

// Outstanding returns the number of unconfirmed demands.
func (l *ReciprocationLedger) Outstanding() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.demands)
}

// Forget drops all demands on a departed or distrusted receiver and
// returns the keyIDs whose keys should be revoked.
func (l *ReciprocationLedger) Forget(receiver int) []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var revoked []uint64
	for keyID, d := range l.demands {
		if d.receiver == receiver {
			revoked = append(revoked, keyID)
			delete(l.demands, keyID)
		}
	}
	return revoked
}
