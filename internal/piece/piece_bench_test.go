package piece

import (
	"math/rand"
	"testing"
)

func benchBitfields(size int) (*Bitfield, *Bitfield) {
	rng := rand.New(rand.NewSource(1))
	a := NewBitfield(size)
	b := NewBitfield(size)
	for i := 0; i < size; i++ {
		if rng.Intn(2) == 0 {
			a.Set(i)
		}
		if rng.Intn(2) == 0 {
			b.Set(i)
		}
	}
	return a, b
}

func BenchmarkBitfieldNeeds(b *testing.B) {
	x, y := benchBitfields(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Needs(y)
	}
}

func BenchmarkBitfieldMissingFrom(b *testing.B) {
	x, y := benchBitfields(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.MissingFrom(y)
	}
}

func BenchmarkRarestFirst(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	avail := NewAvailability(512)
	for i := 0; i < 512; i++ {
		for j := 0; j < rng.Intn(20); j++ {
			avail.AddPiece(i)
		}
	}
	candidates := make([]int, 128)
	for i := range candidates {
		candidates[i] = rng.Intn(512)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		avail.RarestFirst(rng, candidates)
	}
}

// BenchmarkStorePut fills a fresh store with 64 verified 16 KB pieces: the
// SHA-256 check and the copy into the arena per piece, an allocation per
// chunk (check.sh caps allocs/op well below one per piece).
func BenchmarkStorePut(b *testing.B) {
	m, err := SyntheticManifest(64, 16<<10)
	if err != nil {
		b.Fatal(err)
	}
	data := make([][]byte, 64)
	for i := range data {
		data[i] = SyntheticPiece(i, 16<<10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStore(m)
		for j := 0; j < 64; j++ {
			if err := s.Put(j, data[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// bulkContent is swarm_mem_bulk's file: 1024 pieces of 64 KB.
func bulkContent() ([]byte, int) {
	const pieceSize = 64 << 10
	return testContent(1024 * pieceSize), pieceSize
}

// BenchmarkNewManifest hashes a whole bulk-shaped file, as a seeder does
// before it serves; run with -cpu 1,2 to compare one worker with two.
func BenchmarkNewManifest(b *testing.B) {
	content, pieceSize := bulkContent()
	b.SetBytes(int64(len(content)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewManifest(content, pieceSize); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewSeedStore verifies a whole bulk-shaped file into a seed
// store: every piece's SHA-256 check, the content adopted, not copied.
func BenchmarkNewSeedStore(b *testing.B) {
	content, pieceSize := bulkContent()
	m, err := NewManifest(content, pieceSize)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(content)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSeedStore(m, content); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectRarestMissing is the simulator's rarest-first pick at
// Figure 4's shape: 512 pieces held by 0–200 peers each, a half-full
// receiver, and a sender that is the seeder (nil from) or a half-full peer.
// The rarity-level mask visits only candidates that tie or beat the running
// best. 0 allocs/op (check.sh).
func BenchmarkSelectRarestMissing(b *testing.B) {
	const size = 512
	rng := rand.New(rand.NewSource(4))
	avail := NewAvailability(size)
	for i := 0; i < size; i++ {
		for n := rng.Intn(201); n > 0; n-- {
			avail.AddPiece(i)
		}
	}
	have, peer := benchBitfields(size)
	pending := NewBitfield(size)
	for _, row := range []struct {
		name string
		from *Bitfield
	}{{"seeder", nil}, {"peer", peer}} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if avail.SelectRarestMissing(rng, have, row.from, pending) < 0 {
					b.Fatal("no piece picked")
				}
			}
		})
	}
}

// BenchmarkStoreAdopt adopts 64 verified 16 KB pieces into an empty store:
// the SHA-256 check per piece and no copy. The stores are built before the
// timer starts, so a nonzero allocs/op is Adopt's own (check.sh guards 0).
func BenchmarkStoreAdopt(b *testing.B) {
	m, err := SyntheticManifest(64, 16<<10)
	if err != nil {
		b.Fatal(err)
	}
	data := make([][]byte, 64)
	for i := range data {
		data[i] = SyntheticPiece(i, 16<<10)
	}
	stores := make([]*Store, b.N)
	for i := range stores {
		stores[i] = NewStore(m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			if err := stores[i].Adopt(j, data[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
