package node

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/attest"
	"repro/internal/piece"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// startSeed starts a lone altruistic seed holding the whole test file on tr;
// mod, when non-nil, adjusts its Config first.
func startSeed(t *testing.T, tr transport.Transport, mod func(*Config)) (*Node, *piece.Manifest) {
	t.Helper()
	manifest, content := clusterFixture(t)
	store, err := piece.NewSeedStore(manifest, content)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		ID: 0, Algorithm: algo.Altruism, Store: store, Transport: tr,
		DecisionInterval: 2 * time.Millisecond,
	}
	if mod != nil {
		mod(&cfg)
	}
	seed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seed.Stop() })
	return seed, manifest
}

// rawPeer dials addr, sends frames in order, and drains the connection in
// the background. The returned channel closes when the node hangs up; the
// connection is for a test that has more to send.
func rawPeer(t *testing.T, tr transport.Transport, addr string, frames ...protocol.Message) (transport.Conn, <-chan struct{}) {
	t.Helper()
	conn, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	for _, m := range frames {
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	hungUp := make(chan struct{})
	go func() {
		defer close(hungUp)
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	}()
	return conn, hungUp
}

// TestHostileFramesDropLinkNotNode sends, after a valid handshake, one
// frame no honest peer could produce — or, in the one case with no frame, a
// handshake no honest peer could produce. Frames that index outside the
// manifest's bitfield, a sealed piece naming another peer as its sender or
// shorter than its piece, and a Hello claiming a pseudo-peer ID must cost
// the sender its link; the rest are ignored. Either way the node keeps
// serving — a second, honest leecher completes — and Stop returns promptly,
// which it cannot if a handler died holding n.mu.
func TestHostileFramesDropLinkNotNode(t *testing.T) {
	const n = testPieces
	ones := bytes.Repeat([]byte{0xFF}, (n+64)/8)
	whole := make([]byte, testPieceSize)
	cases := []struct {
		name     string
		peerID   int32
		frame    protocol.Message // nil: the handshake alone is the attack
		wantDrop bool
	}{
		{"have-negative", 99, protocol.Have{Index: -1}, true},
		{"have-past-end", 99, protocol.Have{Index: n}, true},
		{"havebatch-negative", 99, protocol.HaveBatch{Indices: []int32{2, -1}}, true},
		{"havebatch-past-end", 99, protocol.HaveBatch{Indices: []int32{2, n}}, true},
		{"havebatch-more-than-pieces", 99, protocol.HaveBatch{Indices: make([]int32, n+1)}, true},
		{"bitfield-oversized", 99, protocol.Bitfield{NumPieces: n + 64, Bits: ones}, true},
		{"bitfield-huge-no-bits", 99, protocol.Bitfield{NumPieces: 1 << 30}, true},
		{"bitfield-short-bits", 99, protocol.Bitfield{NumPieces: n, Bits: ones[:1]}, true},
		{"sealed-negative", 99, protocol.SealedPiece{Index: -1, KeyID: 7, Ciphertext: []byte{1}, OriginID: 99}, false},
		// A frame may not speak for another peer: peer 99 has the seed, as
		// witness, attest that peer 5 forwarded a seal, and names peer 5 the
		// origin of its own seal, whom the key's arrival would credit.
		{"sealed-forwarder-not-the-link", 99, protocol.SealedPiece{Index: 2, KeyID: 7, Ciphertext: whole, OriginID: 1, Forwarded: true, ForwarderID: 5}, true},
		{"sealed-origin-not-the-link", 99, protocol.SealedPiece{Index: 2, KeyID: 7, Ciphertext: whole, OriginID: 5}, true},
		// A seal is a whole piece. A short one would be parked to open to
		// nothing; a short forward would have the seed, as witness, receipt
		// one byte — and the origin release every key peer 99 owes for it.
		{"sealed-short", 99, protocol.SealedPiece{Index: 2, KeyID: 7, Ciphertext: []byte{1}, OriginID: 99}, true},
		{"sealed-forward-short", 99, protocol.SealedPiece{Index: 2, KeyID: 7, Ciphertext: []byte{1}, OriginID: 1, Forwarded: true, ForwarderID: 99}, true},
		{"piece-past-end", 99, protocol.Piece{Index: n, RepaysKeyID: protocol.NoRepay, Data: []byte{1}}, false},
		{"key-unknown", 99, protocol.Key{KeyID: 12345}, false},
		// An empty-handed neighbor named incentive.NoPeer: the seed's
		// strategy would keep picking it and reading its own pick as "idle".
		{"hello-pseudo-peer-id", -1, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := transport.NewMem()
			seed, manifest := startSeed(t, tr, nil)
			frames := []protocol.Message{protocol.Hello{PeerID: tc.peerID, NumPieces: n}}
			if tc.frame != nil {
				frames = append(frames,
					protocol.Bitfield{NumPieces: n, Bits: make([]byte, (n+7)/8)},
					tc.frame)
			}
			_, hungUp := rawPeer(t, tr, seed.Addr(), frames...)
			if tc.wantDrop {
				select {
				case <-hungUp:
				case <-time.After(10 * time.Second):
					t.Fatal("node kept the link to a peer no honest peer could be")
				}
			}

			honest, err := New(Config{
				ID: 1, Algorithm: algo.Altruism, Store: piece.NewStore(manifest),
				Transport: tr, Bootstrap: []string{seed.Addr()},
				DecisionInterval: 2 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := honest.Start(); err != nil {
				t.Fatal(err)
			}
			defer honest.Stop()
			if err := waitComplete(t, honest, 20*time.Second); err != nil {
				t.Fatalf("honest leecher did not complete after the hostile frame (%v): %+v", err, honest.Stats())
			}

			stopped := make(chan struct{})
			go func() {
				seed.Stop()
				close(stopped)
			}()
			select {
			case <-stopped:
			case <-time.After(2 * time.Second):
				t.Fatal("Stop did not return within 2s of a hostile frame")
			}
		})
	}
}

// lockedBuffer lets the node's goroutines log while the test reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTOFURefusalWarns pins the one log line an operator must see: a
// handshake whose key conflicts with the directory is refused with a Warn
// naming the claimed peer.
func TestTOFURefusalWarns(t *testing.T) {
	var out lockedBuffer
	dir := attest.NewDirectory()
	dir.Register(7, attest.NewKeyFromSeed(7, 1).Identity())
	tr := transport.NewMem()
	seed, _ := startSeed(t, tr, func(cfg *Config) {
		cfg.Identity = attest.NewKeyFromSeed(0, 1)
		cfg.Directory = dir
		cfg.Log = slog.New(slog.NewTextHandler(&out, &slog.HandlerOptions{Level: slog.LevelWarn}))
	})
	// An imposter claims the registered peer 7 under a different key.
	imposter := attest.NewKeyFromSeed(7, 2)
	_, hungUp := rawPeer(t, tr, seed.Addr(),
		protocol.Hello{PeerID: 7, NumPieces: testPieces, PubKey: imposter.Public()})
	select {
	case <-hungUp:
	case <-time.After(10 * time.Second):
		t.Fatal("node kept the link to an imposter")
	}
	logged := out.String()
	for _, want := range []string{"level=WARN", "handshake refused", "node=0", "peer=7"} {
		if !strings.Contains(logged, want) {
			t.Errorf("log output missing %q:\n%s", want, logged)
		}
	}
}

// TestAnnounceTTLClamped: the gossip TTL is the sender's claim. A frame
// arriving with TTL 255 must be forwarded with no more hops left than an
// honest origin's announce would have at this point, or one frame with a
// fresh (ID, Seq) is relayed by the whole swarm.
func TestAnnounceTTLClamped(t *testing.T) {
	manifest, _ := clusterFixture(t)
	n, err := New(Config{
		Algorithm: algo.Altruism, Store: piece.NewStore(manifest),
		Transport: transport.NewMem(), Discover: &DiscoverConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	sender := newRemote(n, 1, nopConn{}, "", n.gainLen.Load())
	for id := 1; id <= 1+2*announceFanout; id++ {
		n.peers[id] = newRemote(n, id, nopConn{}, "", n.gainLen.Load())
	}
	n.handleAnnounce(sender, protocol.Announce{ID: 99, Addr: "mem://99", Seq: 1, TTL: 255})
	forwarded := 0
	for _, r := range n.peers {
		for _, m := range r.outbox {
			forwarded++
			if a := m.(protocol.Announce); a.TTL > announceTTL-1 {
				t.Errorf("peer %d was forwarded TTL %d, want at most %d", r.id, a.TTL, announceTTL-1)
			}
		}
	}
	if forwarded != announceFanout {
		t.Errorf("forwarded %d copies, want %d", forwarded, announceFanout)
	}
}
