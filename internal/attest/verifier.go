package attest

import (
	"crypto/ed25519"
	"crypto/hmac"
	"sync"
)

// windowSpan is how far behind the highest admitted sequence a receipt may
// arrive. Receivers assign sequences in order per sender, but escrowed
// (T-Chain) credits can land after later plaintext receipts, so the window
// tolerates bounded reordering without ever re-admitting a spent sequence.
const windowSpan = 128

// window is a DTLS-style anti-replay window: the highest admitted sequence
// plus a bitmap of the windowSpan sequences at and below it. Stored by
// value in the verifier's map so steady-state admission allocates nothing.
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
type Verifier struct {
	dir *Directory

	mu       sync.Mutex
	windows  map[uint64]window    // (receiver, sender) pair → replay window
	pairKeys map[uint64]*macState // keyed session MAC states per pair
	linkKeys map[uint64]*macState // keyed link MAC states per (witness, addressee)
}

// NewVerifier returns a verifier trusting identities admitted to dir.
func NewVerifier(dir *Directory) *Verifier {
	return &Verifier{
		dir:      dir,
		windows:  make(map[uint64]window),
		pairKeys: make(map[uint64]*macState),
		linkKeys: make(map[uint64]*macState),
	}
}

// pairID packs the directional (receiver, sender) pair into one map key.
func pairID(receiver, sender int32) uint64 {
	return uint64(uint32(receiver))<<32 | uint64(uint32(sender))
}

// checkSig validates everything about att except sequence freshness.
func (v *Verifier) checkSig(att *Attestation) error {
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
	switch att.Scheme {
	case SchemeEd25519:
		var canonical [canonicalSize]byte
		if !ed25519.Verify(ident.PubKey, att.AppendCanonical(canonical[:0]), att.Sig[:]) {
			return ErrBadSignature
		}
	case SchemeSession:
		return v.checkTag(att, &ident, v.pairKeys, domainPair, att.Sender)
	case SchemeLink:
		return ErrLinkScoped
	default:
		return ErrBadScheme
	}
	return nil
}

// checkTag validates att's MAC under the key the signer ident derives
// toward peer in the given domain; cache is that domain's state cache.
func (v *Verifier) checkTag(att *Attestation, ident *Identity, cache map[uint64]*macState, domain byte, peer int32) error {
	if !ident.HasSession {
		return ErrNoSession
	}
	v.mu.Lock()
	mac := cachedMACState(cache, pairID(att.Receiver, peer), &ident.Session, domain, peer)
	v.mu.Unlock()
	tag := mac.tag(att)
	if !hmac.Equal(tag[:], att.Sig[:macSize]) {
		return ErrBadSignature
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
	return v.checkTag(&att, &ident, v.linkKeys, domainLink, addressee)
}

// admitSeq spends att's sequence number, rejecting replays and receipts
// that fell behind the reorder window. Sequence 0 is never assigned by a
// Key and is always rejected.
func (v *Verifier) admitSeq(att *Attestation) error {
	if att.Seq == 0 {
		return ErrReplayed
	}
	pair := pairID(att.Receiver, att.Sender)
	v.mu.Lock()
	w := v.windows[pair]
	ok, stale := w.admit(att.Seq)
	if ok {
		v.windows[pair] = w
	}
	v.mu.Unlock()
	if stale {
		return ErrStale
	}
	if !ok {
		return ErrReplayed
	}
	return nil
}

// Verify validates att and spends its sequence number. A nil return means
// the receipt is genuine, fresh, and will never verify again.
func (v *Verifier) Verify(att Attestation) error {
	if err := v.checkSig(&att); err != nil {
		return err
	}
	return v.admitSeq(&att)
}

// Check validates att's signature and admission without consuming replay
// state: the audit path (the /verify endpoint, Ed25519 witness receipts,
// receipt copies). A receipt that passes Check may still be rejected by
// Verify as a replay.
func (v *Verifier) Check(att Attestation) error {
	return v.checkSig(&att)
}
