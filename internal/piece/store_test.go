package piece

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func testContent(n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	return buf
}

func TestNewManifest(t *testing.T) {
	content := testContent(100)
	m, err := NewManifest(content, 30)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPieces() != 4 {
		t.Errorf("NumPieces = %d, want 4", m.NumPieces())
	}
	if m.PieceLength(0) != 30 || m.PieceLength(3) != 10 {
		t.Errorf("lengths: %d, %d", m.PieceLength(0), m.PieceLength(3))
	}
	if m.PieceLength(-1) != 0 || m.PieceLength(4) != 0 {
		t.Error("out-of-range PieceLength not 0")
	}
}

func TestNewManifestExactMultiple(t *testing.T) {
	m, err := NewManifest(testContent(90), 30)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPieces() != 3 || m.PieceLength(2) != 30 {
		t.Errorf("pieces=%d lastLen=%d", m.NumPieces(), m.PieceLength(2))
	}
}

func TestNewManifestErrors(t *testing.T) {
	if _, err := NewManifest(nil, 10); err == nil {
		t.Error("empty content accepted")
	}
	if _, err := NewManifest(testContent(10), 0); err == nil {
		t.Error("zero piece size accepted")
	}
}

func TestStorePutGetVerify(t *testing.T) {
	content := testContent(100)
	m, _ := NewManifest(content, 40)
	s := NewStore(m)

	if err := s.Put(0, content[:40]); err != nil {
		t.Fatal(err)
	}
	if !s.Has(0) || s.Count() != 1 {
		t.Error("piece not recorded")
	}
	got, err := s.GetRef(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content[:40]) {
		t.Error("GetRef returned wrong data")
	}
	// The store holds a copy, not the caller's buffer.
	content[0] ^= 0xff
	if again, _ := s.GetRef(0); again[0] == content[0] {
		t.Error("Put kept the caller's buffer")
	}
	content[0] ^= 0xff

	if err := s.Put(1, content[:40]); !errors.Is(err, ErrHashMismatch) {
		t.Errorf("forged piece err = %v, want ErrHashMismatch", err)
	}
	if err := s.Put(99, nil); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("bad index err = %v, want ErrOutOfRange", err)
	}
	for _, i := range []int{2, -1, 3} {
		if _, err := s.GetRef(i); !errors.Is(err, ErrNotHeld) {
			t.Errorf("GetRef(%d) err = %v, want ErrNotHeld", i, err)
		}
	}
	// Idempotent re-put.
	if err := s.Put(0, content[:40]); err != nil {
		t.Errorf("re-put err = %v", err)
	}
	if _, err := s.Assemble(); !errors.Is(err, ErrNotHeld) {
		t.Errorf("Assemble with pieces missing: err = %v, want ErrNotHeld", err)
	}
	for i, lo := range []int{40, 80} {
		if err := s.Put(i+1, content[lo:min(lo+40, len(content))]); err != nil {
			t.Fatal(err)
		}
	}
	if out, err := s.Assemble(); err != nil || !bytes.Equal(out, content) {
		t.Errorf("Assemble = %v, %v; want the file", out, err)
	}
}

// A held piece is re-verified against the stored bytes, not re-hashed: the
// same bytes are a no-op that keeps the first copy, anything else is the
// mismatch a fresh Put of it would have been.
func TestStorePutHeldComparesBytes(t *testing.T) {
	content := testContent(100)
	m, _ := NewManifest(content, 40)
	s := NewStore(m)
	if err := s.Put(0, content[:40]); err != nil {
		t.Fatal(err)
	}
	first, _ := s.GetRef(0)

	dup := append([]byte(nil), content[:40]...)
	if err := s.Put(0, dup); err != nil {
		t.Errorf("held + same bytes: err = %v, want nil", err)
	}
	if again, _ := s.GetRef(0); &again[0] != &first[0] || s.Count() != 1 {
		t.Error("duplicate Put replaced the stored copy")
	}

	dup[17] ^= 0x01
	if err := s.Put(0, dup); !errors.Is(err, ErrHashMismatch) {
		t.Errorf("held + one flipped byte: err = %v, want ErrHashMismatch", err)
	}
	for _, wrongLen := range [][]byte{content[:39], content[:41], nil} {
		if err := s.Put(0, wrongLen); !errors.Is(err, ErrHashMismatch) {
			t.Errorf("held + %d bytes: err = %v, want ErrHashMismatch", len(wrongLen), err)
		}
	}
	if got, _ := s.GetRef(0); !bytes.Equal(got, content[:40]) {
		t.Error("a rejected duplicate changed the stored piece")
	}
}

// Racing first Puts of one piece (two uploaders pushing it at once) must
// all succeed and leave exactly one stored copy; run under -race.
func TestStoreConcurrentFirstPutStoresOnce(t *testing.T) {
	m, _ := SyntheticManifest(4, 256)
	s := NewStore(m)
	data := SyntheticPiece(2, 256)
	refs := make([][]byte, 8)
	var wg sync.WaitGroup
	for g := range refs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := s.Put(2, append([]byte(nil), data...)); err != nil {
				t.Error(err)
			}
			refs[g], _ = s.GetRef(2)
		}(g)
	}
	wg.Wait()
	if s.Count() != 1 {
		t.Errorf("Count = %d, want 1", s.Count())
	}
	for g, ref := range refs {
		if len(ref) == 0 || &ref[0] != &refs[0][0] {
			t.Errorf("goroutine %d saw a different stored copy", g)
		}
	}
}

func TestSeedStoreAndAssemble(t *testing.T) {
	content := testContent(100)
	m, _ := NewManifest(content, 33)
	seed, err := NewSeedStore(m, content)
	if err != nil {
		t.Fatal(err)
	}
	if !seed.Complete() {
		t.Fatal("seed not complete")
	}
	out, err := seed.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, content) {
		t.Error("assembled file differs")
	}

	partial := NewStore(m)
	if _, err := partial.Assemble(); !errors.Is(err, ErrNotHeld) {
		t.Errorf("partial Assemble err = %v", err)
	}
	if _, err := NewSeedStore(m, content[:10]); err == nil {
		t.Error("short content accepted for seeding")
	}
}

// Seed content must be exactly the manifest's file: trailing bytes past a
// whole-piece file used to be accepted silently, and a short final piece
// used to surface as that piece's hash mismatch.
func TestSeedStoreRequiresFileSize(t *testing.T) {
	content := testContent(91)
	m, _ := NewManifest(content[:90], 30)
	for _, c := range []struct {
		name    string
		content []byte
		want    string
	}{
		{"longer", content, "91 bytes, manifest file is 90"},
		{"shorter", content[:89], "89 bytes, manifest file is 90"},
	} {
		_, err := NewSeedStore(m, c.content)
		if !errors.Is(err, ErrOutOfRange) || errors.Is(err, ErrHashMismatch) {
			t.Errorf("%s content: err = %v, want ErrOutOfRange", c.name, err)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s content: err = %q, want it to name %q", c.name, err, c.want)
		}
	}
}

// withProcs runs the rest of the test at GOMAXPROCS p.
func withProcs(t *testing.T, p int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestForEachPieceVisitsEachIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 7} {
		withProcs(t, procs)
		for _, n := range []int{0, 1, 2, 6, 7, 8, 100} {
			seen := make([]int, n)
			if err := forEachPiece(n, func(i int) error { seen[i]++; return nil }); err != nil {
				t.Fatal(err)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: index %d visited %d times", procs, n, i, c)
				}
			}
		}
	}
}

// Whole-file hashing splits across GOMAXPROCS workers; what it produces,
// errors included, must not depend on how many there are.
func TestHashingIndependentOfWorkers(t *testing.T) {
	content := testContent(1000) // 16 pieces of 64, the last one 40 bytes
	corrupt := append([]byte(nil), content...)
	corrupt[0] ^= 0xff
	corrupt[len(corrupt)-1] ^= 0xff
	type outcome struct {
		ragged, onePiece, synthetic []Hash
		seeded                      [][]byte
		seedErr                     string
	}
	var want outcome
	for _, procs := range []int{1, 2, 7} {
		withProcs(t, procs)
		ragged, err := NewManifest(content, 64)
		if err != nil {
			t.Fatal(err)
		}
		onePiece, err := NewManifest(content[:50], 64)
		if err != nil {
			t.Fatal(err)
		}
		synthetic, err := SyntheticManifest(13, 40)
		if err != nil {
			t.Fatal(err)
		}
		seed, err := NewSeedStore(ragged, content)
		if err != nil {
			t.Fatal(err)
		}
		got := outcome{ragged: ragged.Hashes, onePiece: onePiece.Hashes, synthetic: synthetic.Hashes}
		for i := 0; i < ragged.NumPieces(); i++ {
			ref, err := seed.GetRef(i)
			if err != nil {
				t.Fatal(err)
			}
			got.seeded = append(got.seeded, ref)
		}
		_, err = NewSeedStore(ragged, corrupt)
		if !errors.Is(err, ErrHashMismatch) {
			t.Fatalf("GOMAXPROCS %d: corrupt seed err = %v, want ErrHashMismatch", procs, err)
		}
		got.seedErr = err.Error()

		if procs == 1 {
			if len(got.ragged) != 16 || got.ragged[15] != sha256.Sum256(content[960:]) {
				t.Fatal("ragged last piece hashed wrong")
			}
			if len(got.onePiece) != 1 || got.onePiece[0] != sha256.Sum256(content[:50]) {
				t.Fatal("one-piece file hashed wrong")
			}
			if !strings.HasPrefix(got.seedErr, "seeding piece 0:") {
				t.Fatalf("corrupt seed err = %q, want it to name piece 0", got.seedErr)
			}
			want = got
			continue
		}
		for name, pair := range map[string][2][]Hash{
			"NewManifest ragged":    {got.ragged, want.ragged},
			"NewManifest one piece": {got.onePiece, want.onePiece},
			"SyntheticManifest":     {got.synthetic, want.synthetic},
		} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("GOMAXPROCS %d: %s has %d hashes, want %d", procs, name, len(pair[0]), len(pair[1]))
			}
			for i := range pair[0] {
				if pair[0][i] != pair[1][i] {
					t.Errorf("GOMAXPROCS %d: %s hash %d differs", procs, name, i)
				}
			}
		}
		for i := range got.seeded {
			if !bytes.Equal(got.seeded[i], want.seeded[i]) {
				t.Errorf("GOMAXPROCS %d: seeded piece %d differs", procs, i)
			}
		}
		if got.seedErr != want.seedErr {
			t.Errorf("GOMAXPROCS %d: corrupt seed err = %q, want %q", procs, got.seedErr, want.seedErr)
		}
	}
}

// A failed seed returns only after every worker has: none is left running.
func TestSeedStoreErrorLeavesNoWorkers(t *testing.T) {
	withProcs(t, 7)
	content := testContent(64 << 10)
	m, _ := NewManifest(content, 1<<10)
	corrupt := append([]byte(nil), content...)
	corrupt[len(corrupt)/2] ^= 0xff
	before := runtime.NumGoroutine()
	if _, err := NewSeedStore(m, corrupt); err == nil || !strings.HasPrefix(err.Error(), "seeding piece 32:") {
		t.Fatalf("err = %v, want piece 32's mismatch", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after a failed seed", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSyntheticManifest(t *testing.T) {
	m, err := SyntheticManifest(16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPieces() != 16 || m.FileSize != 1024 {
		t.Errorf("manifest %d pieces, %d bytes", m.NumPieces(), m.FileSize)
	}
	// Synthetic pieces verify against their manifest.
	s := NewStore(m)
	for i := 0; i < 16; i++ {
		if err := s.Put(i, SyntheticPiece(i, 64)); err != nil {
			t.Fatalf("synthetic piece %d rejected: %v", i, err)
		}
	}
	if !s.Complete() {
		t.Error("store incomplete")
	}
	// Distinct pieces have distinct content.
	if bytes.Equal(SyntheticPiece(0, 64), SyntheticPiece(1, 64)) {
		t.Error("synthetic pieces identical")
	}
	if _, err := SyntheticManifest(0, 64); err == nil {
		t.Error("zero pieces accepted")
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	m, _ := SyntheticManifest(64, 32)
	s := NewStore(m)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Put(i, SyntheticPiece(i, 32)); err != nil {
				t.Error(err)
			}
			s.Has(i)
			s.Count()
			s.Bitfield()
		}(i)
	}
	wg.Wait()
	if s.Count() != 64 {
		t.Errorf("Count = %d, want 64", s.Count())
	}
}

func TestStoreBitfieldSnapshot(t *testing.T) {
	m, _ := SyntheticManifest(8, 16)
	s := NewStore(m)
	bf := s.Bitfield()
	if err := s.Put(0, SyntheticPiece(0, 16)); err != nil {
		t.Fatal(err)
	}
	if bf.Has(0) {
		t.Error("snapshot mutated by later Put")
	}
}

// The arena hands out capacity-capped slices: appending to a GetRef result
// reallocates instead of writing into the piece stored after it.
func TestStoreRefAppendCannotReachNextPiece(t *testing.T) {
	m, _ := SyntheticManifest(4, 24)
	s := NewStore(m)
	for i := range 2 {
		if err := s.Put(i, SyntheticPiece(i, 24)); err != nil {
			t.Fatal(err)
		}
	}
	ref, _ := s.GetRef(0)
	if cap(ref) != len(ref) {
		t.Fatalf("GetRef cap %d, len %d: an append would write past the piece", cap(ref), len(ref))
	}
	_ = append(ref, make([]byte, 24)...)
	if next, _ := s.GetRef(1); !bytes.Equal(next, SyntheticPiece(1, 24)) {
		t.Error("an append to piece 0's ref changed piece 1")
	}
}

// Ragged and oversized pieces: a short final piece fills only its length,
// and a piece larger than an arena chunk is stored whole in a chunk of its
// own, without spoiling the chunk the pieces around it share.
func TestStoreArenaPieceSizes(t *testing.T) {
	for _, c := range []struct {
		name            string
		size, pieceSize int
	}{
		{"short final piece", 10*1000 + 7, 1000},
		{"pieces larger than a chunk", 3*chunkSize + chunkSize/2, chunkSize + 1},
		{"chunk-sized pieces", 2 * chunkSize, chunkSize},
	} {
		t.Run(c.name, func(t *testing.T) {
			content := testContent(c.size)
			m, err := NewManifest(content, c.pieceSize)
			if err != nil {
				t.Fatal(err)
			}
			s := NewStore(m)
			// Out of order, so arrival order and index order differ.
			for i := m.NumPieces() - 1; i >= 0; i-- {
				lo := i * c.pieceSize
				if err := s.Put(i, content[lo:min(lo+c.pieceSize, len(content))]); err != nil {
					t.Fatalf("piece %d: %v", i, err)
				}
			}
			last, _ := s.GetRef(m.NumPieces() - 1)
			if len(last) != m.PieceLength(m.NumPieces()-1) || cap(last) != len(last) {
				t.Errorf("last piece len %d cap %d, want both %d", len(last), cap(last), m.PieceLength(m.NumPieces()-1))
			}
			out, err := s.Assemble()
			if err != nil || !bytes.Equal(out, content) {
				t.Fatalf("Assemble: err %v, equal %v", err, bytes.Equal(out, content))
			}
		})
	}
}

// Racing first Puts of one index while readers poll it through GetRef:
// every reader sees either nothing or the whole verified piece, and the
// piece held beside it in the chunk (100 bytes: the two share a word) reads
// the same throughout. Run under -race.
func TestStoreRacingPutsWithReaders(t *testing.T) {
	m, _ := SyntheticManifest(3, 100)
	s := NewStore(m)
	held := SyntheticPiece(0, 100)
	if err := s.Put(0, held); err != nil {
		t.Fatal(err)
	}
	want := SyntheticPiece(1, 100)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put(1, append([]byte(nil), want...)); err != nil {
				t.Error(err)
			}
		}()
	}
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !s.Has(1) {
				if ref, err := s.GetRef(1); err == nil && !bytes.Equal(ref, want) {
					t.Error("a reader saw a partial piece")
					return
				}
				if ref, _ := s.GetRef(0); !bytes.Equal(ref, held) {
					t.Error("the neighbouring piece changed under a Put")
					return
				}
			}
			if ref, err := s.GetRef(1); err != nil || !bytes.Equal(ref, want) {
				t.Errorf("held piece read back wrong: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := s.Put(2, SyntheticPiece(2, 100)); err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if ref, _ := s.GetRef(i); !bytes.Equal(ref, SyntheticPiece(i, 100)) {
			t.Errorf("piece %d changed", i)
		}
	}
}

// A duplicate Put is checked against the stored bytes, wherever in a chunk
// they sit: different bytes of the same length are still a mismatch, and
// the stored copy is unchanged.
func TestStoreDuplicateDifferentBytesMismatch(t *testing.T) {
	m, _ := SyntheticManifest(8, 64)
	s := NewStore(m)
	for i := range 8 {
		if err := s.Put(i, SyntheticPiece(i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 8 {
		forged := SyntheticPiece(i, 64)
		forged[63] ^= 0x80
		if err := s.Put(i, forged); !errors.Is(err, ErrHashMismatch) {
			t.Errorf("piece %d: duplicate with different bytes: err = %v, want ErrHashMismatch", i, err)
		}
		if err := s.Put(i, SyntheticPiece((i+1)%8, 64)); !errors.Is(err, ErrHashMismatch) {
			t.Errorf("piece %d: another piece's bytes: err = %v, want ErrHashMismatch", i, err)
		}
		if ref, _ := s.GetRef(i); !bytes.Equal(ref, SyntheticPiece(i, 64)) {
			t.Errorf("piece %d: a rejected duplicate changed the stored copy", i)
		}
	}
}

// Adopt runs Put's checks and then keeps the caller's bytes: a forged piece
// is refused and leaves nothing behind, and a verified one is stored as the
// caller's slice with its capacity capped at the piece.
func TestStoreAdopt(t *testing.T) {
	m, _ := SyntheticManifest(4, 64)
	s := NewStore(m)

	forged := SyntheticPiece(0, 64)
	forged[5] ^= 0x01
	if err := s.Adopt(0, forged); !errors.Is(err, ErrHashMismatch) {
		t.Errorf("forged piece: err = %v, want ErrHashMismatch", err)
	}
	if _, err := s.GetRef(0); !errors.Is(err, ErrNotHeld) || s.Has(0) || s.Count() != 0 {
		t.Errorf("a forged Adopt stored something: GetRef err %v, Has %v, Count %d", err, s.Has(0), s.Count())
	}
	if err := s.Adopt(9, forged); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("bad index: err = %v, want ErrOutOfRange", err)
	}

	buf := make([]byte, 64, 128)
	copy(buf, SyntheticPiece(0, 64))
	if err := s.Adopt(0, buf); err != nil {
		t.Fatal(err)
	}
	ref, _ := s.GetRef(0)
	if &ref[0] != &buf[0] || len(ref) != 64 {
		t.Fatal("Adopt stored a copy, not the caller's bytes")
	}
	if cap(ref) != len(ref) {
		t.Fatalf("adopted ref cap %d, len %d: an append would write into the caller's spare capacity", cap(ref), len(ref))
	}
	grown := append(ref, 0xaa)
	if &grown[0] == &buf[0] || buf[:65][64] != 0 {
		t.Error("an append to the adopted ref wrote into the caller's buffer")
	}
}

// A held piece decides a later Put or Adopt of it by its stored bytes,
// whichever of the two stored it: the same bytes are a no-op that keeps the
// first holder's slice, different ones a mismatch that changes nothing.
func TestStoreHeldPutAndAdopt(t *testing.T) {
	m, _ := SyntheticManifest(2, 64)
	for _, c := range []struct {
		name         string
		first, later func(s *Store, i int, data []byte) error
	}{
		{"Adopt after Put", (*Store).Put, (*Store).Adopt},
		{"Put after Adopt", (*Store).Adopt, (*Store).Put},
		{"Adopt after Adopt", (*Store).Adopt, (*Store).Adopt},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := NewStore(m)
			if err := c.first(s, 1, SyntheticPiece(1, 64)); err != nil {
				t.Fatal(err)
			}
			first, _ := s.GetRef(1)
			same := SyntheticPiece(1, 64)
			if err := c.later(s, 1, same); err != nil {
				t.Errorf("held + same bytes: err = %v, want nil", err)
			}
			if got, _ := s.GetRef(1); &got[0] != &first[0] || s.Count() != 1 {
				t.Error("a duplicate replaced the stored slice")
			}
			same[0] ^= 0x80
			if err := c.later(s, 1, same); !errors.Is(err, ErrHashMismatch) {
				t.Errorf("held + different bytes: err = %v, want ErrHashMismatch", err)
			}
			if got, _ := s.GetRef(1); &got[0] != &first[0] || !bytes.Equal(got, SyntheticPiece(1, 64)) {
				t.Error("a rejected duplicate changed the stored piece")
			}
		})
	}
}

// NewSeedStore keeps the content itself, one capacity-capped slice per
// piece, and still names the lowest bad piece of corrupt content.
func TestSeedStoreKeepsContent(t *testing.T) {
	content := testContent(1000)
	m, _ := NewManifest(content, 64)
	s, err := NewSeedStore(m, content)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.NumPieces() {
		ref, _ := s.GetRef(i)
		if &ref[0] != &content[i*64] || len(ref) != m.PieceLength(i) || cap(ref) != len(ref) {
			t.Fatalf("piece %d: not content[%d:] capped at its length (len %d cap %d)", i, i*64, len(ref), cap(ref))
		}
	}
	corrupt := append([]byte(nil), content...)
	corrupt[11*64] ^= 0xff
	corrupt[3*64+1] ^= 0xff
	if _, err := NewSeedStore(m, corrupt); !errors.Is(err, ErrHashMismatch) || !strings.HasPrefix(err.Error(), "seeding piece 3:") {
		t.Errorf("corrupt content: err = %v, want piece 3's mismatch", err)
	}
}

// Racing first Puts and Adopts of one index while readers poll it: the
// store keeps one holder's slice, every reader sees nothing or the whole
// piece, and every racer returns nil. Run under -race.
func TestStoreRacingPutAdoptWithReaders(t *testing.T) {
	m, _ := SyntheticManifest(2, 100)
	s := NewStore(m)
	want := SyntheticPiece(1, 100)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			store := s.Put
			if g%2 == 0 {
				store = s.Adopt
			}
			if err := store(1, SyntheticPiece(1, 100)); err != nil {
				t.Error(err)
			}
		}()
	}
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !s.Has(1) {
				if ref, err := s.GetRef(1); err == nil && !bytes.Equal(ref, want) {
					t.Error("a reader saw a partial piece")
					return
				}
			}
		}()
	}
	wg.Wait()
	if ref, err := s.GetRef(1); err != nil || !bytes.Equal(ref, want) || s.Count() != 1 {
		t.Errorf("after the race: GetRef err %v, equal %v, Count %d", err, bytes.Equal(ref, want), s.Count())
	}
}
