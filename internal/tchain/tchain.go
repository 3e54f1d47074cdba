// Package tchain implements T-Chain's enforcement substrate [8]: pieces are
// uploaded *encrypted*, and the decryption key is released only after the
// uploader is satisfied that the receiver reciprocated (directly back to the
// uploader, or indirectly to a third peer designated by the uploader).
//
// The simulator models this rule abstractly (credit withheld from peers
// that renege); the live node (internal/node) uses this package for the
// real thing: AES-256-CTR sealing and the sender-side escrow — one book of
// which receiver owes a reciprocation for which key, and so when a key may
// be released. Piece integrity after decryption is checked against the
// swarm manifest's SHA-256 hashes, so a wrong or withheld key can never
// smuggle corrupt data into a store.
package tchain

import (
	"cmp"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// KeySize is the AES-256 key length in bytes.
const KeySize = 32

// NonceSize is the CTR-mode IV length in bytes.
const NonceSize = aes.BlockSize

// Key is a piece-encryption key.
type Key [KeySize]byte

// Sealed is an encrypted piece as it travels on the wire.
type Sealed struct {
	// KeyID identifies the escrowed key at the sender.
	KeyID uint64
	// Nonce is the CTR IV.
	Nonce [NonceSize]byte
	// Ciphertext is the encrypted piece payload.
	Ciphertext []byte
}

// Errors returned by this package.
var (
	ErrUnknownKey = errors.New("tchain: unknown or already-released key")
	ErrEmpty      = errors.New("tchain: empty plaintext")
)

// Released is one key leaving the book, with what the caller needs to send
// it: the receiver it was sealed for and the piece it unlocks.
type Released struct {
	KeyID    uint64
	Receiver int
	Piece    int
	Key      Key
}

// owed is one pushed seal whose key is still held: for whom, for which
// piece, and when its grace runs out on the caller's clock.
type owed struct {
	key      Key
	receiver int
	piece    int
	due      int64
}

// noReceiver is the receiver of a plain Seal: no Confirm names it and no
// Sweep trusts it, so only Release or Revoke settles such a key.
const noReceiver = -1

// Escrow is the sender's one book of the seals it has pushed: each key with
// the receiver that owes a reciprocation for it, the piece it unlocks and
// its grace deadline, plus the receivers that have ever reciprocated. A key
// leaves the book exactly once — released, swept, revoked or forgotten —
// and nothing is kept for it afterwards. The book reads no clock: deadlines
// and sweep instants are the caller's. Safe for concurrent use.
type Escrow struct {
	mu     sync.Mutex
	rand   io.Reader
	nextID uint64
	// draw receives each seal's key‖nonce under mu: a field, so the read
	// into it costs no allocation per seal.
	draw    [KeySize + NonceSize]byte
	owed    map[uint64]owed
	trusted map[int]bool
}

// NewEscrow returns an escrow drawing keys from crypto/rand.
func NewEscrow() *Escrow { return NewEscrowWithRand(rand.Reader) }

// NewEscrowWithRand returns an escrow drawing randomness from r —
// deterministic tests inject a seeded reader here.
func NewEscrowWithRand(r io.Reader) *Escrow {
	return &Escrow{rand: r, owed: make(map[uint64]owed), trusted: make(map[int]bool)}
}

// Seal encrypts plaintext under a fresh key, escrows the key for nobody in
// particular, and returns the sealed piece.
func (e *Escrow) Seal(plaintext []byte) (*Sealed, error) {
	sealed, err := e.SealFor(plaintext, noReceiver, 0, 0)
	if err != nil {
		return nil, err
	}
	return &sealed, nil
}

// SealFor encrypts plaintext under a fresh key and books the key as owed by
// receiver for piece, strictly escrowed until due. The key and then the
// nonce are drawn in one read and booked in one section (r need not be
// concurrency-safe); the cipher pass runs outside it. The ciphertext is a
// fresh buffer nothing writes to again, so every hop may share it.
func (e *Escrow) SealFor(plaintext []byte, receiver, piece int, due int64) (Sealed, error) {
	if len(plaintext) == 0 {
		return Sealed{}, ErrEmpty
	}
	o := owed{receiver: receiver, piece: piece, due: due}
	var sealed Sealed
	e.mu.Lock()
	_, err := io.ReadFull(e.rand, e.draw[:])
	if err == nil {
		o.key, sealed.Nonce = Key(e.draw[:KeySize]), [NonceSize]byte(e.draw[KeySize:])
		sealed.KeyID = e.nextID
		e.nextID++
		e.owed[sealed.KeyID] = o
	}
	e.mu.Unlock()
	if err != nil {
		return Sealed{}, fmt.Errorf("tchain: drawing key and nonce: %w", err)
	}
	if sealed.Ciphertext, err = xorStream(nil, o.key, sealed.Nonce, plaintext); err != nil {
		e.Revoke(sealed.KeyID)
		return Sealed{}, err
	}
	return sealed, nil
}

// take removes keyID's entry and returns it as a release (mu held).
func (e *Escrow) take(keyID uint64, o owed) Released {
	delete(e.owed, keyID)
	return Released{KeyID: keyID, Receiver: o.receiver, Piece: o.piece, Key: o.key}
}

// Release removes and returns the key for keyID. The second call for the
// same ID returns ErrUnknownKey — a key can only be handed out once.
func (e *Escrow) Release(keyID uint64) (Key, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	o, ok := e.owed[keyID]
	if !ok {
		return Key{}, fmt.Errorf("key %d: %w", keyID, ErrUnknownKey)
	}
	return e.take(keyID, o).Key, nil
}

// Revoke discards the key for keyID (the seal was never sent, or the
// receiver reneged); the ciphertext it guards becomes permanently useless.
func (e *Escrow) Revoke(keyID uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.owed, keyID)
}

// byKeyID orders a release in ascending KeyID: the book is a map, and the
// keys one sweep releases leave in the same order on every run of a seed.
func byKeyID(a, b Released) int { return cmp.Compare(a.KeyID, b.KeyID) }

// Confirm reports one reciprocation by from, observed directly or by any
// witness, for the seal keyID: that key is released, and from is trusted
// from here on (see Sweep), only when from owes it. One reciprocation buys
// one key; a confirmation naming a key from does not owe earns nothing.
func (e *Escrow) Confirm(from int, keyID uint64) (Released, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	o, ok := e.owed[keyID]
	if !ok || o.receiver != from || from == noReceiver {
		return Released{}, false
	}
	e.trusted[from] = true
	return e.take(keyID, o), true
}

// Sweep is the endgame fallback at now on the clock the deadlines were
// given on: it releases every key past its deadline whose receiver has
// reciprocated before and is still linked — typically owed only because
// nobody in the swarm needs anything anymore. Keys leave in KeyID order. A
// receiver that never reciprocated gets no grace, and an unlinked one's keys
// wait for Forget.
func (e *Escrow) Sweep(now int64, linked func(receiver int) bool) []Released {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Released
	for keyID, o := range e.owed {
		if o.due <= now && e.trusted[o.receiver] && linked(o.receiver) {
			out = append(out, e.take(keyID, o))
		}
	}
	slices.SortFunc(out, byKeyID)
	return out
}

// Piece returns the piece keyID's key unlocks while the key is held; false
// once it has left the book — a receipt naming a settled key matches nothing.
func (e *Escrow) Piece(keyID uint64) (int, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	o, ok := e.owed[keyID]
	return o.piece, ok
}

// Forget revokes every key a departed receiver still owes for. Its trust
// survives: a peer that reconnects has still reciprocated before.
func (e *Escrow) Forget(receiver int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for keyID, o := range e.owed {
		if o.receiver == receiver {
			delete(e.owed, keyID)
		}
	}
}

// Pending returns the number of escrowed (unreleased) keys.
func (e *Escrow) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.owed)
}

// Open decrypts a sealed piece with the given key into a fresh buffer.
// Callers must verify the plaintext against the manifest hash — CTR
// provides no integrity on its own.
func Open(s *Sealed, key Key) ([]byte, error) { return OpenInto(nil, s, key) }

// OpenInto is Open writing the plaintext into dst's storage when its
// capacity suffices, and returns it. s.Ciphertext is only read; dst must
// not overlap it, since a sealed buffer may still be queued for another
// peer.
func OpenInto(dst []byte, s *Sealed, key Key) ([]byte, error) {
	if s == nil || len(s.Ciphertext) == 0 {
		return nil, ErrEmpty
	}
	return xorStream(dst, key, s.Nonce, s.Ciphertext)
}

// xorStream runs AES-CTR over data into dst's storage (grown if short).
// The IV is staged in that storage first: NewCTR copies it, and its iv
// argument escapes, so passing nonce[:] would cost a heap object per call.
func xorStream(dst []byte, key Key, nonce [NonceSize]byte, data []byte) ([]byte, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("tchain: %w", err)
	}
	out := slices.Grow(dst[:0], max(len(data), NonceSize))
	stream := cipher.NewCTR(block, append(out, nonce[:]...))
	out = out[:len(data)]
	stream.XORKeyStream(out, data)
	return out, nil
}
