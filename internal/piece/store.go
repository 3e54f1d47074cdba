package piece

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Hash is the SHA-256 digest of a piece's plaintext content.
type Hash [sha256.Size]byte

// Errors returned by Store operations.
var (
	ErrOutOfRange   = errors.New("piece: index out of range")
	ErrHashMismatch = errors.New("piece: content hash mismatch")
	ErrNotHeld      = errors.New("piece: piece not held")
)

// Manifest describes a file split into fixed-size pieces: the expected hash
// of every piece plus sizing metadata. A Manifest is immutable after
// creation and safe to share between peers.
type Manifest struct {
	PieceSize int
	FileSize  int
	Hashes    []Hash
}

// NumPieces returns the number of pieces in the file.
func (m *Manifest) NumPieces() int { return len(m.Hashes) }

// PieceLength returns the byte length of piece i (the final piece may be
// short).
func (m *Manifest) PieceLength(i int) int {
	if i < 0 || i >= len(m.Hashes) {
		return 0
	}
	if i == len(m.Hashes)-1 {
		if rem := m.FileSize % m.PieceSize; rem != 0 {
			return rem
		}
	}
	return m.PieceSize
}

// NewManifest splits content into pieceSize chunks and records their hashes,
// hashing on GOMAXPROCS workers. It returns an error on a non-positive piece
// size or empty content.
func NewManifest(content []byte, pieceSize int) (*Manifest, error) {
	if pieceSize <= 0 {
		return nil, fmt.Errorf("piece: piece size %d must be positive", pieceSize)
	}
	if len(content) == 0 {
		return nil, errors.New("piece: empty content")
	}
	numPieces := (len(content) + pieceSize - 1) / pieceSize
	m := &Manifest{
		PieceSize: pieceSize,
		FileSize:  len(content),
		Hashes:    make([]Hash, numPieces),
	}
	forEachPiece(numPieces, func(i int) error {
		lo := i * pieceSize
		hi := min(lo+pieceSize, len(content))
		m.Hashes[i] = sha256.Sum256(content[lo:hi])
		return nil
	})
	return m, nil
}

// SyntheticManifest builds a manifest for a deterministic synthetic file of
// numPieces pieces of pieceSize bytes each, without materializing the file.
// Piece i's content is the byte pattern produced by SyntheticPiece(i, ...).
// Simulations use this to model a 128 MB file without 128 MB of RAM per peer.
func SyntheticManifest(numPieces, pieceSize int) (*Manifest, error) {
	if numPieces <= 0 || pieceSize <= 0 {
		return nil, fmt.Errorf("piece: invalid synthetic manifest %dx%d", numPieces, pieceSize)
	}
	m := &Manifest{
		PieceSize: pieceSize,
		FileSize:  numPieces * pieceSize,
		Hashes:    make([]Hash, numPieces),
	}
	forEachPiece(numPieces, func(i int) error {
		m.Hashes[i] = sha256.Sum256(SyntheticPiece(i, pieceSize))
		return nil
	})
	return m, nil
}

// forEachPiece calls fn for every index in [0, n), split into contiguous
// ranges over min(GOMAXPROCS, n) goroutines, and returns once all have
// finished. Each range stops at its first error and the lowest range's error
// wins, so the result is the error of the lowest failing index whatever the
// worker count. fn must be safe to call concurrently for distinct indexes.
func forEachPiece(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w * n / workers; i < (w+1)*n/workers; i++ {
				if errs[w] = fn(i); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SyntheticPiece returns the deterministic content of piece i in a synthetic
// file: a repeating 8-byte little-endian pattern derived from the index.
func SyntheticPiece(i, pieceSize int) []byte {
	buf := make([]byte, pieceSize)
	seed := uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for off := 0; off < pieceSize; off += 8 {
		v := seed + uint64(off)
		for b := 0; b < 8 && off+b < pieceSize; b++ {
			buf[off+b] = byte(v >> (8 * uint(b)))
		}
	}
	return buf
}

// chunkSize is the size of one store arena chunk. Pieces Put copies go
// into the current chunk's tail in arrival order, so a store allocates once
// per chunk rather than once per piece; a piece larger than a chunk gets one
// of its own.
const chunkSize = 256 << 10

// Store holds verified piece data for one peer. It verifies every Put and
// Adopt against the manifest hash, so corrupt or forged pieces never enter a
// peer's store. Safe for concurrent use (the live network node accesses it
// from multiple goroutines).
type Store struct {
	mu       sync.RWMutex
	manifest *Manifest
	have     *Bitfield
	data     [][]byte // piece i's bytes, capacity-capped: a chunk's slice or adopted bytes; nil until held
	free     []byte   // the unused tail of the current chunk
}

// NewStore returns an empty store for the given manifest.
func NewStore(m *Manifest) *Store {
	return &Store{
		manifest: m,
		have:     NewBitfield(m.NumPieces()),
		data:     make([][]byte, m.NumPieces()),
	}
}

// NewSeedStore returns a store pre-populated with every piece of content,
// each verified and adopted by Adopt on GOMAXPROCS workers: the store keeps
// content itself, capacity-capped per piece, not a copy, so the caller must
// not modify content afterwards. The content must be exactly m.FileSize
// bytes (any other length is an ErrOutOfRange error naming both sizes) and
// every piece must match its manifest hash; on a mismatch the error names
// the lowest bad piece.
func NewSeedStore(m *Manifest, content []byte) (*Store, error) {
	if len(content) != m.FileSize {
		return nil, fmt.Errorf("piece: content is %d bytes, manifest file is %d: %w", len(content), m.FileSize, ErrOutOfRange)
	}
	s := NewStore(m)
	err := forEachPiece(m.NumPieces(), func(i int) error {
		lo := i * m.PieceSize
		hi := min(lo+m.PieceSize, len(content))
		if err := s.Adopt(i, content[lo:hi]); err != nil {
			return fmt.Errorf("seeding piece %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Manifest returns the store's manifest.
func (s *Store) Manifest() *Manifest { return s.manifest }

// Put verifies data against the manifest hash for piece i and stores a
// copy. It returns ErrHashMismatch if verification fails and ErrOutOfRange
// for a bad index. Re-putting a held piece is a verified no-op: the held
// bytes already passed the hash, so comparing against them (stricter than an
// equal digest) decides a duplicate without hashing it again.
func (s *Store) Put(i int, data []byte) error { return s.store(i, data, false) }

// Adopt is Put without the copy: the same checks, then the store keeps data
// itself, its capacity capped at the piece. The caller hands the bytes over
// frozen: neither it nor anyone else may modify them afterwards, since
// GetRef hands them on as the stored piece. A rejected piece is not kept.
func (s *Store) Adopt(i int, data []byte) error { return s.store(i, data, true) }

// store is Put's and Adopt's one verify path; adopt says whether a piece
// that passes keeps data or a copy of it in the arena.
func (s *Store) store(i int, data []byte, adopt bool) error {
	if i < 0 || i >= s.manifest.NumPieces() {
		return fmt.Errorf("piece %d of %d: %w", i, s.manifest.NumPieces(), ErrOutOfRange)
	}
	s.mu.RLock()
	held := s.data[i]
	s.mu.RUnlock()
	if held != nil {
		if !bytes.Equal(held, data) {
			return fmt.Errorf("piece %d: %w", i, ErrHashMismatch)
		}
		return nil
	}
	if sha256.Sum256(data) != s.manifest.Hashes[i] {
		return fmt.Errorf("piece %d: %w", i, ErrHashMismatch)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data[i] != nil {
		return nil
	}
	n := len(data)
	stored := data[:n:n]
	if !adopt {
		if n > chunkSize {
			stored = make([]byte, n)
		} else {
			if n > len(s.free) {
				s.free = make([]byte, chunkSize)
			}
			stored, s.free = s.free[:n:n], s.free[n:]
		}
		copy(stored, data)
	}
	s.data[i] = stored
	s.have.Set(i)
	return nil
}

// GetRef returns piece i's stored bytes without copying, or ErrNotHeld.
// The returned slice is the store's own buffer: callers must treat it as
// read-only. That contract is safe to offer because stored buffers are
// never mutated afterwards — Put's private copies, or bytes an Adopt or
// NewSeedStore caller handed over frozen — and it is what lets the live
// node hand pieces straight to the wire encoder with zero per-send
// allocation, and a Mem receiver adopt them in turn. Its capacity ends at
// the piece, so an append to it reallocates rather than writing into the
// next piece.
func (s *Store) GetRef(i int) ([]byte, error) {
	var data []byte
	if i >= 0 && i < len(s.data) {
		s.mu.RLock()
		data = s.data[i]
		s.mu.RUnlock()
	}
	if data == nil {
		return nil, fmt.Errorf("piece %d: %w", i, ErrNotHeld)
	}
	return data, nil
}

// Has reports whether piece i is held.
func (s *Store) Has(i int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.have.Has(i)
}

// Count returns the number of held pieces.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.have.Count()
}

// Complete reports whether all pieces are held.
func (s *Store) Complete() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.have.Complete()
}

// Bitfield returns a snapshot copy of the held-piece bitfield.
func (s *Store) Bitfield() *Bitfield {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.have.Clone()
}

// Assemble concatenates all pieces into the original file content. It
// returns ErrNotHeld if any piece is missing.
func (s *Store) Assemble() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.have.Complete() {
		return nil, fmt.Errorf("%d of %d pieces: %w", s.have.Count(), s.manifest.NumPieces(), ErrNotHeld)
	}
	var buf bytes.Buffer
	buf.Grow(s.manifest.FileSize)
	for _, data := range s.data {
		buf.Write(data)
	}
	return buf.Bytes(), nil
}
