// Package reputation implements the global reputation substrate the paper's
// reputation-based algorithm relies on (Section III-A): every user is
// assumed to know the total amount of data each other user has uploaded,
// and upload preference is proportional to that score.
//
// The ledger API is proof-first: every credit is an attest.Attestation and
// the ledger consults its verification policy before mutating anything.
// The paper's trust-the-report world — the design weakness its collusion
// and false-praise attacks (Table III) exploit — is still expressible, but
// only explicitly, by constructing the ledger with attest.AcceptAll; a
// ledger built over an attest.Verifier credits nothing it cannot prove.
package reputation

import (
	"errors"
	"sync"

	"repro/internal/attest"
)

// ErrNonPositive rejects attestations claiming zero or negative bytes.
var ErrNonPositive = errors.New("reputation: non-positive byte count")

// Standing is one peer's ledger entry: its cumulative verified score plus
// how many proofs naming it as the contributor were accepted and rejected.
// A forger shows up as a peer with a large Invalid count and no Score.
type Standing struct {
	Score   float64
	Valid   uint64
	Invalid uint64
}

// Ledger tracks cumulative upload contributions per peer, credited only
// through attestations its policy admits. Safe for concurrent use: the
// simulator mutates it from one goroutine, the live network node from
// many.
type Ledger struct {
	policy attest.Policy

	mu        sync.RWMutex
	standings Table[Standing]
}

// NewLedger returns an empty ledger enforcing policy. The policy is
// required: pass an attest.Verifier to credit only cryptographic proofs,
// or attest.AcceptAll for the paper's unverified baseline.
func NewLedger(policy attest.Policy) *Ledger {
	if policy == nil {
		panic("reputation: NewLedger requires a policy (attest.AcceptAll for the unverified baseline)")
	}
	return &Ledger{policy: policy}
}

// Credit records that att.Sender uploaded att.Bytes of data, if and only
// if the attestation passes the ledger's policy. On rejection the claimed
// beneficiary's invalid-proof count rises and the policy's error is
// returned; scores never move on unproven claims.
func (l *Ledger) Credit(att attest.Attestation) error {
	if att.Bytes <= 0 {
		return ErrNonPositive
	}
	if err := l.policy.Verify(att); err != nil {
		l.mu.Lock()
		l.standings.At(int(att.Sender)).Invalid++
		l.mu.Unlock()
		return err
	}
	l.mu.Lock()
	s := l.standings.At(int(att.Sender))
	s.Score += float64(att.Bytes)
	s.Valid++
	l.mu.Unlock()
	return nil
}

// Score returns peer's cumulative reputation (0 for unknown peers).
func (l *Ledger) Score(peer int) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.standings.Get(peer).Score
}

// Scored pairs a peer with its score, for reading many scores at once.
type Scored struct {
	Peer  int
	Score float64
}

// Scores fills in the Score of every entry from its Peer (0 for unknown
// peers) under a single read lock, so a decision that weighs dozens of
// candidates pays for the lock once and sees one consistent ledger state.
func (l *Ledger) Scores(entries []Scored) {
	l.mu.RLock()
	for i := range entries {
		entries[i].Score = l.standings.Get(entries[i].Peer).Score
	}
	l.mu.RUnlock()
}

// Reset erases peer's standing, modelling a whitewashing identity reset.
func (l *Ledger) Reset(peer int) {
	l.mu.Lock()
	l.standings.Zero(peer)
	l.mu.Unlock()
}

// Snapshot returns every peer's standing — including peers that only ever
// produced rejected proofs — for metrics, the /verify endpoint, and
// debugging. A reset peer is left out: its standing is all zero, which no
// credit or rejection leaves behind (credits are positive, and a rejection
// counts one).
func (l *Ledger) Snapshot() map[int]Standing {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make(map[int]Standing, l.standings.Len())
	l.standings.Range(func(peer int, s Standing) {
		if s != (Standing{}) {
			out[peer] = s
		}
	})
	return out
}
