package attest

import (
	"crypto/ed25519"
	"crypto/subtle"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
)

// Identity is one admitted peer's verification material. HasSession marks
// identities registered in-process with their session secret; identities
// learned over the wire carry only the public key and can verify
// SchemeEd25519 receipts alone.
type Identity struct {
	PubKey     ed25519.PublicKey
	Session    [32]byte
	HasSession bool
}

// Directory errors.
var (
	// ErrSealed rejects trust-on-first-use observations after Seal.
	ErrSealed = errors.New("attest: directory sealed, new identities rejected")
	// ErrKeyConflict rejects an observation that contradicts an already
	// pinned key for the same peer ID.
	ErrKeyConflict = errors.New("attest: conflicting key for peer")
)

// Directory maps peer IDs to admitted identities. It is the membership
// root of trust: a Verifier only accepts receipts signed by directory
// identities, so whoever controls admission controls who can mint
// reputation.
//
// Two admission paths with different trust:
//
//   - Register is the authorized path — the cluster (or operator) vouches
//     for the binding. It always succeeds and may rotate a key.
//   - Observe is trust-on-first-use — a previously unseen peer's Hello
//     pins its public key; later conflicting keys are rejected. Open TOFU
//     admits Sybils by construction (anyone can mint a key), which is the
//     documented tradeoff for cross-process swarms without a CA; sealed
//     directories refuse TOFU entirely, closing the Sybil door for
//     closed-membership clusters.
//
// Every receipt checked reads the directory, from every node's handlers at
// once, and admissions are rare, so Lookup and Len read an immutable
// snapshot through an atomic pointer and take no lock; Register and Observe
// copy it, change the copy and publish it under a plain mutex, so the n-th
// admission copies n−1 identities: paid once per peer, not per receipt.
type Directory struct {
	ids    atomic.Pointer[map[int32]Identity] // never written once published
	mu     sync.Mutex                         // serializes writers
	sealed bool
}

// NewDirectory returns an empty open directory.
func NewDirectory() *Directory {
	d := &Directory{}
	d.ids.Store(&map[int32]Identity{})
	return d
}

// publishLocked installs a copy of the snapshot with id bound to ident
// (d.mu held).
func (d *Directory) publishLocked(id int32, ident Identity) {
	next := maps.Clone(*d.ids.Load())
	next[id] = ident
	d.ids.Store(&next)
}

// Register admits (or rotates) an identity through the authorized path.
func (d *Directory) Register(id int32, ident Identity) {
	d.mu.Lock()
	d.publishLocked(id, ident)
	d.mu.Unlock()
}

// Observe pins a public key for id on first use. It fails with ErrSealed
// on a sealed directory and ErrKeyConflict if id is already bound to a
// different key; re-observing the same key is a no-op.
func (d *Directory) Observe(id int32, pub ed25519.PublicKey) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("attest: observing peer %d: bad public key length %d", id, len(pub))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if existing, ok := (*d.ids.Load())[id]; ok {
		if subtle.ConstantTimeCompare(existing.PubKey, pub) != 1 {
			return fmt.Errorf("%w %d", ErrKeyConflict, id)
		}
		return nil
	}
	if d.sealed {
		return ErrSealed
	}
	cp := make(ed25519.PublicKey, ed25519.PublicKeySize)
	copy(cp, pub)
	d.publishLocked(id, Identity{PubKey: cp})
	return nil
}

// Seal closes membership: subsequent Observe calls for unknown peers fail.
// Register remains available to the authorized path (e.g. Cluster.Join).
func (d *Directory) Seal() {
	d.mu.Lock()
	d.sealed = true
	d.mu.Unlock()
}

// Lookup returns the identity admitted for id.
func (d *Directory) Lookup(id int32) (Identity, bool) {
	ident, ok := (*d.ids.Load())[id]
	return ident, ok
}

// Len returns the number of admitted identities.
func (d *Directory) Len() int { return len(*d.ids.Load()) }
