package attest

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
)

// Key is one peer's attestation identity: an Ed25519 keypair for identity
// signatures, a session secret for cheap pairwise MACs, and the per-sender
// sequence counters this peer assigns when signing receipts. Safe for
// concurrent use — a live node signs from several handler goroutines.
type Key struct {
	id      int32
	priv    ed25519.PrivateKey
	pub     ed25519.PublicKey
	session [32]byte

	mu       sync.Mutex
	seq      map[int32]uint64    // next unassigned Seq per counterparty sender
	pairKeys map[int32]*macState // keyed pairwise MAC states, by sender
	linkKeys map[int32]*macState // keyed link MAC states, by addressee
}

// NewKey generates a fresh random identity for peer id.
func NewKey(id int32) (*Key, error) {
	var seed [ed25519.SeedSize]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("attest: generating key: %w", err)
	}
	return newKey(id, seed), nil
}

// NewKeyFromSeed derives a deterministic identity for peer id from a swarm
// seed. Clusters and simulations use it so a run's key material — and
// therefore every signature — is reproducible; the derivation domain
// separates the Ed25519 seed from the session secret.
func NewKeyFromSeed(id int32, seed int64) *Key {
	var material [13]byte
	material[0] = 'k' // domain: identity seed
	binary.BigEndian.PutUint32(material[1:5], uint32(id))
	binary.BigEndian.PutUint64(material[5:13], uint64(seed))
	edSeed := sha256.Sum256(material[:])
	return newKey(id, edSeed)
}

func newKey(id int32, edSeed [ed25519.SeedSize]byte) *Key {
	k := &Key{
		id:       id,
		priv:     ed25519.NewKeyFromSeed(edSeed[:]),
		seq:      make(map[int32]uint64),
		pairKeys: make(map[int32]*macState),
		linkKeys: make(map[int32]*macState),
	}
	k.pub = k.priv.Public().(ed25519.PublicKey)
	// The session secret is independent of the Ed25519 scalar but derived
	// from the same seed, so one registration carries both.
	var sessMaterial [ed25519.SeedSize + 1]byte
	sessMaterial[0] = 's' // domain: session secret
	copy(sessMaterial[1:], edSeed[:])
	k.session = sha256.Sum256(sessMaterial[:])
	return k
}

// ID returns the peer ID this key attests as.
func (k *Key) ID() int32 { return k.id }

// Public returns the Ed25519 public key.
func (k *Key) Public() ed25519.PublicKey { return k.pub }

// Identity returns the registration record for this key: the public key
// plus the session secret. Register it with an in-process Directory;
// cross-process peers learn only the public half (via Hello) and must use
// SchemeEd25519.
func (k *Key) Identity() Identity {
	return Identity{PubKey: k.pub, Session: k.session, HasSession: true}
}

// Attest signs a receipt as this key's peer (the receiver): "sender
// delivered piece index, content hash hash, n bytes". It assigns the next
// sequence number for that sender and signs under the requested scheme.
// SchemeLink receipts come from AttestLink, which names the addressee;
// through Attest the addressee is the sender itself, whom no check admits.
func (k *Key) Attest(scheme Scheme, sender, index int32, hash [32]byte, n int64) Attestation {
	return k.attest(scheme, sender, sender, index, hash, n)
}

// AttestLink signs a T-Chain witness receipt addressed to origin: "forwarder
// relayed piece index of origin's seal to me, n bytes". The tag is keyed to
// this peer's link with origin (SchemeLink), so only origin can check it —
// with Verifier.CheckLink — and the forwarder it names cannot produce it.
func (k *Key) AttestLink(origin, forwarder, index int32, hash [32]byte, n int64) Attestation {
	return k.attest(SchemeLink, forwarder, origin, index, hash, n)
}

// attest builds and signs one receipt naming sender; keyedTo is the peer a
// MAC scheme derives its key toward.
func (k *Key) attest(scheme Scheme, sender, keyedTo, index int32, hash [32]byte, n int64) Attestation {
	att := Attestation{
		Sender:   sender,
		Receiver: k.id,
		Index:    index,
		Hash:     hash,
		Bytes:    n,
		Scheme:   scheme,
	}
	var mac *macState
	k.mu.Lock()
	k.seq[sender]++
	att.Seq = k.seq[sender]
	switch scheme {
	case SchemeSession:
		mac = cachedMACState(k.pairKeys, &k.session, domainPair, keyedTo)
	case SchemeLink:
		mac = cachedMACState(k.linkKeys, &k.session, domainLink, keyedTo)
	}
	k.mu.Unlock()

	switch scheme {
	case SchemeEd25519:
		var canonical [canonicalSize]byte
		copy(att.Sig[:], ed25519.Sign(k.priv, att.AppendCanonical(canonical[:0])))
	case SchemeSession, SchemeLink:
		tag := mac.tag(&att)
		copy(att.Sig[:], tag[:])
	case SchemeNone:
		// unsigned claim — nothing to do
	}
	return att
}
