package node

import (
	"bytes"
	"cmp"
	"context"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/algo"
	"repro/internal/piece"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// ownershipSwarm runs a seed and leechers over tr to completion and
// returns the stopped cluster with the content it moved.
func ownershipSwarm(t *testing.T, tr transport.Transport, listenAddr string, leechers int) (*Cluster, []byte) {
	t.Helper()
	manifest, content := clusterFixture(t)
	c, err := StartCluster(manifest, content,
		WithAlgorithm(algo.Altruism),
		WithTransport(tr),
		WithListenAddr(func(int) string { return listenAddr }),
		WithLeechers(leechers),
		WithDecisionInterval(2*time.Millisecond),
		WithoutAttestation(),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err = c.WaitAllCompleteContext(ctx)
	c.Stop()
	if err != nil {
		t.Fatal(err)
	}
	return c, content
}

// TestMemPiecesStoredByReference: over Mem a receiver adopts the verified
// payload, the sender's own stored bytes, so every leecher's piece is the
// seed's — which is the seeded content itself — whoever forwarded it. A
// Flaky wrapper only drops and delays frames, so its Mem links adopt too.
func TestMemPiecesStoredByReference(t *testing.T) {
	flaky, err := transport.NewFlaky(transport.NewMem(), transport.WithLatency(0, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		tr   transport.Transport
	}{
		{"mem", transport.NewMem()},
		{"flaky-mem", flaky},
	} {
		t.Run(c.name, func(t *testing.T) {
			swarm, content := ownershipSwarm(t, c.tr, "", 3)
			seed := swarm.Nodes[0].StoreHandle()
			for i := 0; i < testPieces; i++ {
				held, err := seed.GetRef(i)
				if err != nil {
					t.Fatal(err)
				}
				if &held[0] != &content[i*testPieceSize] {
					t.Fatalf("the seed's piece %d is a copy of the content", i)
				}
				for id, n := range swarm.Nodes[1:] {
					got, err := n.StoreHandle().GetRef(i)
					if err != nil {
						t.Fatal(err)
					}
					if &got[0] != &held[0] || len(got) != len(held) {
						t.Errorf("leecher %d's piece %d is not the seed's stored slice", id+1, i)
					}
				}
			}
		})
	}
}

// TestTCPPiecesOwnStorage: a TCP Piece.Data is the decoder's scratch, which
// the next frame on the connection overwrites, so a receiver stores a copy.
// Read back after the whole download (and every frame after it), each piece
// still equals the content, and no two stored pieces share memory, as
// pieces kept in one reused scratch would.
func TestTCPPiecesOwnStorage(t *testing.T) {
	swarm, content := ownershipSwarm(t, transport.NewTCP(), "127.0.0.1:0", 2)
	for id, n := range swarm.Nodes[1:] {
		store := n.StoreHandle()
		type span struct{ lo, hi uintptr }
		var spans []span
		for i := 0; i < testPieces; i++ {
			got, err := store.GetRef(i)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, content[i*testPieceSize:(i+1)*testPieceSize]) {
				t.Errorf("leecher %d: piece %d changed after it was stored", id+1, i)
			}
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(got)))
			spans = append(spans, span{lo, lo + uintptr(len(got))})
		}
		slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
		for i := 1; i < len(spans); i++ {
			if spans[i].lo < spans[i-1].hi {
				t.Fatalf("leecher %d: two stored pieces share memory: the store kept frame scratch", id+1)
			}
		}
	}
}

// TestEarlyDuplicateBytes pins the early side of the duplicate counter: a
// copy of a held piece counts as early while the node holds under a tenth
// of the pieces (9 of 100), and only in the total from a tenth (10 of 100).
func TestEarlyDuplicateBytes(t *testing.T) {
	const pieces, size = 100, 16
	manifest, err := piece.SyntheticManifest(pieces, size)
	if err != nil {
		t.Fatal(err)
	}
	n := fixtureNode(t, Config{Algorithm: algo.Altruism, Store: piece.NewStore(manifest)})
	r, _ := fixtureRemote(n, 1, false)
	link(t, n, r)
	deliver := func(i int) {
		n.handlePiece(r, protocol.Piece{Index: int32(i), RepaysKeyID: protocol.NoRepay, Data: piece.SyntheticPiece(i, size)})
	}
	dups := func() (early, total int64) {
		c := n.Metrics().Counters
		return c["node_early_duplicate_piece_bytes_total"], c["node_duplicate_piece_bytes_total"]
	}
	for i := range pieces/10 - 1 {
		deliver(i)
	}
	deliver(0)
	if early, total := dups(); early != size || total != size {
		t.Errorf("a copy at 9 of 100 held: early %d, total %d bytes; want %d, %d", early, total, size, size)
	}
	deliver(pieces/10 - 1)
	deliver(0)
	if early, total := dups(); early != size || total != 2*size {
		t.Errorf("a copy at 10 of 100 held: early %d, total %d bytes; want %d, %d", early, total, size, 2*size)
	}
}
