package node

import (
	"bytes"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/attest"
	"repro/internal/incentive"
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
// frame no honest peer could produce — or, in one case with no frame, a
// handshake no honest peer could produce, and in one more a frame in place
// of the handshake. Frames that index outside the manifest's bitfield, a
// sealed piece naming another peer as its sender or shorter than its piece,
// a Hello claiming a pseudo-peer ID, and a first frame that is neither a
// Hello nor a witness receipt must cost the sender its link; the rest are
// ignored, and the link stays up. Contacts are such hints: whatever a Nodes
// frame lists — this node by ID or by address, a pseudo-peer ID, no
// address, ten thousand nodes — the node never dials itself, a pseudo-peer
// or nowhere, never holds more than 2×MaxNeighbors contacts and never dials
// past MaxNeighbors. Either way the node keeps serving — a second, honest
// leecher completes — and Stop returns promptly, which it cannot if a
// handler died holding n.mu or a connection's goroutine never returned.
func TestHostileFramesDropLinkNotNode(t *testing.T) {
	const n = testPieces
	ones := bytes.Repeat([]byte{0xFF}, (n+64)/8)
	whole := make([]byte, testPieceSize)
	flood := make([]protocol.NodeInfo, 10000)
	for i := range flood {
		flood[i] = protocol.NodeInfo{ID: int32(1000 + i), Addr: fmt.Sprintf("trap://flood-%d", i)}
	}
	cases := []struct {
		name     string
		peerID   int32
		frame    protocol.Message // nil: the handshake alone is the attack
		wantDrop bool
		noHello  bool // frame is sent in place of the handshake
	}{
		{"have-negative", 99, protocol.Have{Index: -1}, true, false},
		{"have-past-end", 99, protocol.Have{Index: n}, true, false},
		{"havebatch-negative", 99, protocol.HaveBatch{Indices: []int32{2, -1}}, true, false},
		{"havebatch-past-end", 99, protocol.HaveBatch{Indices: []int32{2, n}}, true, false},
		{"havebatch-more-than-pieces", 99, protocol.HaveBatch{Indices: make([]int32, n+1)}, true, false},
		// Requests are checked like announcements, and no honest peer has
		// more than maxInFlight outstanding; a full window is honest.
		{"request-negative", 99, protocol.HaveBatch{Requests: []int32{2, -1}}, true, false},
		{"request-past-end", 99, protocol.HaveBatch{Indices: []int32{2}, Requests: []int32{n}}, true, false},
		{"requests-past-window", 99, protocol.HaveBatch{Requests: make([]int32, maxInFlight+1)}, true, false},
		{"requests-full-window", 99, protocol.HaveBatch{Requests: []int32{0, 1, 2, 3, 4, 5, 6, 7}}, false, false},
		{"bitfield-oversized", 99, protocol.Bitfield{NumPieces: n + 64, Bits: ones}, true, false},
		{"bitfield-huge-no-bits", 99, protocol.Bitfield{NumPieces: 1 << 30}, true, false},
		{"bitfield-short-bits", 99, protocol.Bitfield{NumPieces: n, Bits: ones[:1]}, true, false},
		{"sealed-negative", 99, protocol.SealedPiece{Index: -1, KeyID: 7, Ciphertext: []byte{1}, OriginID: 99}, false, false},
		// A frame may not speak for another peer: peer 99 has the seed, as
		// witness, attest that peer 5 forwarded a seal, and names peer 5 the
		// origin of its own seal, whom the key's arrival would credit.
		{"sealed-forwarder-not-the-link", 99, protocol.SealedPiece{Index: 2, KeyID: 7, Ciphertext: whole, OriginID: 1, Forwarded: true, ForwarderID: 5}, true, false},
		{"sealed-origin-not-the-link", 99, protocol.SealedPiece{Index: 2, KeyID: 7, Ciphertext: whole, OriginID: 5}, true, false},
		// A seal is a whole piece. A short one would be parked to open to
		// nothing; a short forward would have the seed, as witness, receipt
		// one byte — and the origin release the key it names.
		{"sealed-short", 99, protocol.SealedPiece{Index: 2, KeyID: 7, Ciphertext: []byte{1}, OriginID: 99}, true, false},
		{"sealed-forward-short", 99, protocol.SealedPiece{Index: 2, KeyID: 7, Ciphertext: []byte{1}, OriginID: 1, Forwarded: true, ForwarderID: 99}, true, false},
		{"piece-past-end", 99, protocol.Piece{Index: n, RepaysKeyID: protocol.NoRepay, Data: []byte{1}}, false, false},
		{"key-unknown", 99, protocol.Key{KeyID: 12345}, false, false},
		// An empty-handed neighbor named incentive.NoPeer: the seed's
		// strategy would keep picking it and reading its own pick as "idle".
		{"hello-pseudo-peer-id", -1, nil, true, false},
		// Only a witness receipt may stand in for a Hello (see
		// sendTransientReceipt).
		{"first-frame-not-hello", 99, protocol.Have{Index: 0}, true, true},
		// The seed is node 0, listening at a fresh Mem's first address.
		{"nodes-self", 99, protocol.Nodes{Contacts: []protocol.NodeInfo{{ID: 0, Addr: "trap://self-id"}, {ID: 7, Addr: "mem://0"}}}, false, false},
		{"nodes-negative-id", 99, protocol.Nodes{Contacts: []protocol.NodeInfo{{ID: -1, Addr: "trap://negative"}}}, false, false},
		{"nodes-empty-addr", 99, protocol.Nodes{Contacts: []protocol.NodeInfo{{ID: 5, Addr: ""}}}, false, false},
		{"nodes-flood", 99, protocol.Nodes{Contacts: flood}, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := transport.NewMem()
			dials := &dialLog{Transport: tr}
			seed, manifest := startSeed(t, dials, nil)
			frames := []protocol.Message{protocol.Hello{PeerID: tc.peerID, NumPieces: n}}
			switch {
			case tc.noHello:
				frames = []protocol.Message{tc.frame}
			case tc.frame != nil:
				frames = append(frames,
					protocol.Bitfield{NumPieces: n, Bits: make([]byte, (n+7)/8)},
					tc.frame)
			}
			conn, hungUp := rawPeer(t, tr, seed.Addr(), frames...)
			if flood, ok := tc.frame.(protocol.Nodes); ok && len(flood.Contacts) > incentive.DefaultMaxNeighbors {
				// Three more windows of the flood, each opening with contacts
				// not yet listed: more than the contact set holds, twice what
				// the dial budget allows. Each trap holds its dial open.
				for k := 1; k < 4; k++ {
					if err := conn.Send(protocol.Nodes{Contacts: flood.Contacts[k*incentive.DefaultMaxNeighbors:]}); err != nil {
						t.Fatal(err)
					}
				}
				for deadline := time.Now().Add(10 * time.Second); len(dials.dialed()) < incentive.DefaultMaxNeighbors; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("node dialed %d flood contacts, want its whole budget of %d", len(dials.dialed()), incentive.DefaultMaxNeighbors)
					}
				}
				time.Sleep(20 * time.Millisecond) // ten ticks past the budget
			}
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
			if !tc.wantDrop {
				select {
				case <-hungUp:
					t.Error("node dropped the link over a frame it should have ignored")
				default:
				}
			}
			// The only dials a row may cause are the flood's, each held open by
			// a silent trap: the budget, not the list, bounds them.
			flooded := 0
			for _, addr := range dials.dialed() {
				if !strings.HasPrefix(addr, "trap://flood-") {
					t.Errorf("node dialed %q", addr)
				}
				flooded++
			}
			if flooded > incentive.DefaultMaxNeighbors {
				t.Errorf("node dialed %d flood contacts, above MaxNeighbors %d", flooded, incentive.DefaultMaxNeighbors)
			}
			seed.mu.Lock()
			if len(seed.contacts) > 2*incentive.DefaultMaxNeighbors {
				t.Errorf("contact set grew to %d, past its bound %d", len(seed.contacts), 2*incentive.DefaultMaxNeighbors)
			}
			for _, c := range seed.contacts {
				if c.id < 0 || c.id == 0 || c.addr == "" || c.addr == seed.Addr() {
					t.Errorf("node keeps contact %+v", c)
				}
			}
			seed.mu.Unlock()

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
