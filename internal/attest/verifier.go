package attest

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"sync"
)

// windowSpan is how far behind the highest admitted sequence a receipt may
// arrive. Receivers assign sequences in order per sender, but escrowed
// (T-Chain) credits can land after later plaintext receipts, so the window
// tolerates bounded reordering without ever re-admitting a spent sequence.
const windowSpan = 128

// window is a DTLS-style anti-replay window: the highest admitted sequence
// plus a bitmap of the windowSpan sequences at and below it, kept by value in
// its pair's state so steady-state admission allocates nothing.
type window struct {
	max  uint64
	bits [windowSpan / 64]uint64 // bit 0 of word 0 = max itself
}

// admit marks seq as spent. It reports false if seq was already spent or
// fell behind the window.
func (w *window) admit(seq uint64) (ok bool, stale bool) {
	switch {
	case seq > w.max:
		shift := seq - w.max
		if shift >= windowSpan {
			w.bits = [windowSpan / 64]uint64{}
		} else {
			for ; shift >= 64; shift -= 64 {
				w.bits[1] = w.bits[0]
				w.bits[0] = 0
			}
			if shift > 0 {
				w.bits[1] = w.bits[1]<<shift | w.bits[0]>>(64-shift)
				w.bits[0] <<= shift
			}
		}
		w.max = seq
		w.bits[0] |= 1
		return true, false
	case w.max-seq >= windowSpan:
		return false, true
	default:
		off := w.max - seq
		word, bit := off/64, off%64
		if w.bits[word]&(1<<bit) != 0 {
			return false, false
		}
		w.bits[word] |= 1 << bit
		return true, false
	}
}

// Verifier enforces the full attestation contract against a directory:
// no self-attestation, signer admitted, signature valid, sequence fresh.
// Verify spends sequences; Check is the stateless variant for audits.
//
// Its state is one pairState per directional pair, found through lock-free
// reads, so checks of different pairs share no lock: pairs holds the session
// receipts' (receiver, sender) states with their replay windows, links the
// witness receipts' (witness, addressee) MAC states.
type Verifier struct {
	dir          *Directory
	pairs, links sync.Map // pairID → *pairState
}

// pairState is a verifier's state for one pair, behind the embedded
// macState's mutex: the keyed MAC state, the session secret it was derived
// from, and the replay window. When the directory rotates the signer's key
// the state is derived again and the window restarts: the new key numbers
// its receipts from 1, and nothing signed under the retired one verifies.
type pairState struct {
	macState
	session [32]byte
	window  window
}

// NewVerifier returns a verifier trusting identities admitted to dir.
func NewVerifier(dir *Directory) *Verifier {
	return &Verifier{dir: dir}
}

// pairID packs the directional (receiver, sender) pair into one map key.
func pairID(receiver, sender int32) uint64 {
	return uint64(uint32(receiver))<<32 | uint64(uint32(sender))
}

// lockPair returns signer's state for its pair with peer in states, locked
// and derived under domain from the identity the directory holds for signer
// now, after checking tagged's MAC under it when tagged is non-nil. The
// directory is read under the pair's lock, so each holder sees a snapshot at
// least as new as the last one's: a check that looked signer up before a
// rotation cannot derive the retired secret back. A pair not seen before is
// stored only once its first receipt passes, so forged receipts naming
// arbitrary peers leave nothing behind. The caller has found signer
// admitted; admissions are never removed.
func (v *Verifier) lockPair(states *sync.Map, signer, peer int32, domain byte, tagged *Attestation) (*pairState, error) {
	id := pairID(signer, peer)
	st, stored := states.Load(id)
	if !stored {
		st = &pairState{}
	}
	for {
		ps := st.(*pairState)
		ps.mu.Lock()
		ident, _ := v.dir.Lookup(signer)
		if ps.h == nil || ps.session != ident.Session {
			ps.h = hmac.New(sha256.New, macKey(ident.Session, domain, peer))
			ps.session = ident.Session
			ps.window = window{}
		}
		var err error
		switch {
		case tagged == nil:
		case !ident.HasSession:
			err = ErrNoSession // rotated to a key-only identity since
		case !ps.tagMatchesLocked(tagged):
			err = ErrBadSignature
		}
		if err != nil {
			ps.mu.Unlock()
			return nil, err
		}
		if stored {
			return ps, nil
		}
		if st, stored = states.LoadOrStore(id, ps); !stored {
			return ps, nil
		}
		ps.mu.Unlock() // another check stored the pair first: use that one
	}
}

// tagMatchesLocked reports whether att carries the pair's MAC (ps.mu held).
func (ps *pairState) tagMatchesLocked(att *Attestation) bool {
	tag := ps.tagLocked(att)
	return hmac.Equal(tag[:], att.Sig[:macSize])
}

// verify checks att and, when spend is set, spends its sequence number.
func (v *Verifier) verify(att *Attestation, spend bool) error {
	if att.Sender == att.Receiver {
		return ErrSelfAttestation
	}
	if att.Scheme == SchemeNone {
		return ErrUnsigned
	}
	ident, ok := v.dir.Lookup(att.Receiver)
	if !ok {
		return ErrUnknownSigner
	}
	var tagged *Attestation
	switch att.Scheme {
	case SchemeEd25519:
		var canonical [canonicalSize]byte
		if !ed25519.Verify(ident.PubKey, att.AppendCanonical(canonical[:0]), att.Sig[:]) {
			return ErrBadSignature
		}
		if !spend {
			return nil
		}
	case SchemeSession:
		if !ident.HasSession {
			return ErrNoSession
		}
		tagged = att
	case SchemeLink:
		return ErrLinkScoped
	default:
		return ErrBadScheme
	}
	ps, err := v.lockPair(&v.pairs, att.Receiver, att.Sender, domainPair, tagged)
	if err != nil {
		return err
	}
	defer ps.mu.Unlock()
	if !spend {
		return nil
	}
	return ps.admitLocked(att.Seq)
}

// admitLocked spends seq in the pair's window (ps.mu held), rejecting
// replays and receipts that fell behind the reorder window. Sequence 0 is
// never assigned by a Key and is always rejected.
func (ps *pairState) admitLocked(seq uint64) error {
	if seq == 0 {
		return ErrReplayed
	}
	switch ok, stale := ps.window.admit(seq); {
	case stale:
		return ErrStale
	case !ok:
		return ErrReplayed
	}
	return nil
}

// CheckLink validates a SchemeLink witness receipt as addressee, the origin
// it must have been signed for: the tag has to verify under the key the
// witness (att.Receiver) derives toward addressee, so a receipt minted by
// anyone but the witness, or addressed to another origin, fails. Stateless,
// like Check. The caller vouches for the channel — it should pass only
// receipts that arrived on its authenticated link to att.Receiver.
func (v *Verifier) CheckLink(att Attestation, addressee int32) error {
	if att.Scheme != SchemeLink {
		return ErrBadScheme
	}
	if att.Sender == att.Receiver || att.Sender == addressee {
		return ErrSelfAttestation // an origin never forwards its own seal
	}
	ident, ok := v.dir.Lookup(att.Receiver)
	if !ok {
		return ErrUnknownSigner
	}
	if !ident.HasSession {
		return ErrNoSession
	}
	ps, err := v.lockPair(&v.links, att.Receiver, addressee, domainLink, &att)
	if err != nil {
		return err
	}
	ps.mu.Unlock()
	return nil
}

// Verify validates att and spends its sequence number. A nil return means
// the receipt is genuine, fresh, and will never verify again.
func (v *Verifier) Verify(att Attestation) error { return v.verify(&att, true) }

// Check validates att's signature and admission without consuming replay
// state: the audit path (the /verify endpoint, Ed25519 witness receipts,
// receipt copies). A receipt that passes Check may still be rejected by
// Verify as a replay.
func (v *Verifier) Check(att Attestation) error { return v.verify(&att, false) }
