// Package attest implements cryptographically verifiable transfer
// attestations: signed receipts proving "Sender uploaded piece Index
// (content hash Hash, Bytes bytes) to Receiver".
//
// The receiver signs, not the sender. A peer can always sign claims about
// its own contributions, so sender-signed receipts would leave the paper's
// false-praise attack (Table III) wide open; requiring the downloader's
// signature means inflating your reputation needs a counterparty's private
// key. Replays of a genuine receipt are suppressed by a per-(receiver,
// sender) sequence window, and Sybil-minted identities fail the directory
// lookup, so a valid attestation is spendable exactly once and only by the
// peer that actually received the data.
//
// Three signature schemes share one attestation shape:
//
//   - SchemeEd25519 signs with the receiver's long-term identity key.
//     Used for T-Chain witness receipts, cross-process swarms (coopnode),
//     and audits — anywhere the verifier may only know the public key.
//   - SchemeSession MACs with a pairwise HMAC-SHA256 key derived from the
//     receiver's registered session secret. This is the stand-in for the
//     handshake-derived record keys real transports negotiate: identity
//     keys sign once at admission, per-piece receipts ride the ~50× cheaper
//     MAC. High-rate in-process swarms use it so verification stays off the
//     throughput critical path.
//   - SchemeLink MACs a T-Chain witness receipt with a key derived from the
//     witness's session secret and the seal origin's ID, under its own
//     derivation domain: the witness-to-origin link's key. The forwarder the
//     receipt names is no party to it, so it cannot mint one, and a receipt
//     addressed to one origin does not verify at another. It proves
//     something only to its addressee (CheckLink); Check and Verify refuse
//     it, so it is never credited or audited as a portable proof.
//
// SchemeNone marks an unsigned claim — the paper's trust-the-report world.
// A strict Verifier rejects it; the AcceptAll policy (which models the
// paper's unverified baseline for simulation) accepts it.
package attest

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"sync"
)

// Scheme selects how an attestation is signed.
type Scheme uint8

// The signature schemes.
const (
	// SchemeNone is an unsigned claim; only AcceptAll admits it.
	SchemeNone Scheme = iota
	// SchemeEd25519 is a signature by the receiver's identity key.
	SchemeEd25519
	// SchemeSession is an HMAC-SHA256 tag under the pairwise session key.
	SchemeSession
	// SchemeLink is an HMAC-SHA256 tag under the signer's key for the link
	// to one addressee, who alone can check it (see CheckLink).
	SchemeLink
)

// String returns the scheme name.
func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "none"
	case SchemeEd25519:
		return "ed25519"
	case SchemeSession:
		return "session"
	case SchemeLink:
		return "link"
	default:
		return "scheme(?)"
	}
}

// SigSize is the attestation signature field width (an Ed25519 signature;
// session MACs use the first 32 bytes and zero the rest).
const SigSize = ed25519.SignatureSize

// macSize is the session-MAC tag width within Sig.
const macSize = sha256.Size

// Attestation is one signed transfer receipt: Receiver attests that Sender
// delivered piece Index with content hash Hash and payload size Bytes. Seq
// is assigned by the receiver per sender, strictly increasing from 1, and
// anchors replay suppression.
type Attestation struct {
	Sender   int32
	Receiver int32
	Index    int32
	Hash     [32]byte
	Bytes    int64
	Seq      uint64
	Scheme   Scheme
	Sig      [SigSize]byte
}

// canonicalSize is the length of the signed canonical encoding.
const canonicalSize = 4 + 4 + 4 + 32 + 8 + 8 + 1

// AppendCanonical appends the canonical signed encoding — every field
// except the signature, fixed-width big-endian — to dst and returns the
// extended buffer. Signers and verifiers must agree on this byte string
// exactly; including the scheme tag prevents cross-scheme confusion.
func (a *Attestation) AppendCanonical(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(a.Sender))
	dst = binary.BigEndian.AppendUint32(dst, uint32(a.Receiver))
	dst = binary.BigEndian.AppendUint32(dst, uint32(a.Index))
	dst = append(dst, a.Hash[:]...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(a.Bytes))
	dst = binary.BigEndian.AppendUint64(dst, a.Seq)
	dst = append(dst, byte(a.Scheme))
	return dst
}

// Claim returns an unsigned SchemeNone attestation. It models the paper's
// unverified world: a bare report that Sender delivered piece Index of n
// bytes to Receiver. Only the AcceptAll policy credits claims.
func Claim(sender, receiver, index int32, n int64) Attestation {
	return Attestation{Sender: sender, Receiver: receiver, Index: index, Bytes: n}
}

// Verification errors.
var (
	// ErrSelfAttestation rejects receipts where a peer vouches for itself.
	ErrSelfAttestation = errors.New("attest: sender and receiver are the same peer")
	// ErrUnknownSigner rejects receipts signed by an identity the directory
	// has never admitted — the Sybil case.
	ErrUnknownSigner = errors.New("attest: signer not in directory")
	// ErrBadSignature rejects receipts whose signature does not verify —
	// the forgery case.
	ErrBadSignature = errors.New("attest: signature verification failed")
	// ErrReplayed rejects receipts whose sequence number was already spent.
	ErrReplayed = errors.New("attest: sequence already used (replay)")
	// ErrStale rejects receipts that fell behind the replay window.
	ErrStale = errors.New("attest: sequence below replay window")
	// ErrUnsigned rejects SchemeNone claims under a strict verifier.
	ErrUnsigned = errors.New("attest: unsigned claim rejected")
	// ErrNoSession rejects session-MAC receipts from identities that
	// registered no session secret (e.g. TOFU-observed remote peers).
	ErrNoSession = errors.New("attest: no session secret for signer")
	// ErrBadScheme rejects unknown scheme tags.
	ErrBadScheme = errors.New("attest: unknown signature scheme")
	// ErrLinkScoped rejects a SchemeLink receipt presented as a portable
	// proof: it convinces only the addressee its key was derived for.
	ErrLinkScoped = errors.New("attest: link-scoped receipt is not a portable proof")
)

// Policy decides whether an attestation is sufficient evidence to credit
// reputation. The reputation ledger consults its policy before every
// mutation: Verifier enforces the full cryptographic contract, AcceptAll
// reproduces the paper's trust-the-report baseline.
type Policy interface {
	Verify(att Attestation) error
}

// AcceptAll is the paper's unverified world as a policy: every claim is
// credited, signed or not. The simulator uses it by default so the
// incentive analysis (and its attack susceptibilities, Table III) matches
// the paper; flipping a swarm to a strict Verifier is what closes those
// attacks.
type AcceptAll struct{}

// Verify accepts every attestation.
func (AcceptAll) Verify(Attestation) error { return nil }

// The derivation domains of the MAC keys a session secret yields.
const (
	domainPair byte = 'p' // SchemeSession: receiver→sender per-piece receipts
	domainLink byte = 'l' // SchemeLink: witness→origin receipts
)

// macKey derives the signer's directional MAC key toward peer from the
// signer's session secret: under domainPair the receipt's sender, under
// domainLink the origin a witness receipt is addressed to. The peer ID is
// bound into the derivation so a tag computed for one counterparty cannot
// be replayed as another's, and the domain so a per-piece receipt cannot
// pass as a witness receipt to the same peer. The secret is taken by value:
// hmac.New keeps the slice it is given, and a pointer would move the
// caller's copy to the heap on every cache hit too.
func macKey(session [32]byte, domain byte, peer int32) []byte {
	var ctx [5]byte
	ctx[0] = domain
	binary.BigEndian.PutUint32(ctx[1:5], uint32(peer))
	kdf := hmac.New(sha256.New, session[:])
	kdf.Write(ctx[:])
	return kdf.Sum(nil)
}

// macState is one derived key's HMAC-SHA256, keyed once and reused through
// Reset, so a tag hashes the message and not the key's ipad and opad blocks
// again. The canonical bytes and the sum are staged in its own fields under
// its own lock: passed through the hash.Hash interface, stack buffers would
// escape to the heap.
type macState struct {
	mu        sync.Mutex
	h         hash.Hash
	canonical [canonicalSize]byte
	sum       [macSize]byte
}

func newMACState(key []byte) *macState {
	return &macState{h: hmac.New(sha256.New, key)}
}

// tag returns the MAC of att's canonical encoding.
func (m *macState) tag(att *Attestation) [macSize]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tagLocked(att)
}

// tagLocked is tag with m.mu held.
func (m *macState) tagLocked(att *Attestation) [macSize]byte {
	return m.sumLocked(att.AppendCanonical(m.canonical[:0]))
}

// sumLocked returns the MAC of msg (m.mu held).
func (m *macState) sumLocked(msg []byte) [macSize]byte {
	m.h.Reset()
	m.h.Write(msg)
	return [macSize]byte(m.h.Sum(m.sum[:0]))
}

// cachedMACState returns cache[peer], deriving the key toward peer under
// domain and keying its state on first use. The caller holds the lock that
// guards cache.
func cachedMACState(cache map[int32]*macState, session *[32]byte, domain byte, peer int32) *macState {
	m, ok := cache[peer]
	if !ok {
		m = newMACState(macKey(*session, domain, peer))
		cache[peer] = m
	}
	return m
}
