package node

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/piece"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// scriptConn is a transport.Conn the test plays the peer on: frames the
// node sends arrive on sent, frames the test pushes on in are what the node
// receives.
type scriptConn struct {
	in     chan protocol.Message
	sent   chan protocol.Message
	closed chan struct{}
	once   sync.Once
}

func newScriptConn() *scriptConn {
	return &scriptConn{
		in:     make(chan protocol.Message),
		sent:   make(chan protocol.Message),
		closed: make(chan struct{}),
	}
}

func (c *scriptConn) Send(m protocol.Message) error {
	select {
	case c.sent <- m:
		return nil
	case <-c.closed:
		return transport.ErrClosed
	}
}

func (c *scriptConn) Recv() (protocol.Message, error) {
	select {
	case m := <-c.in:
		return m, nil
	case <-c.closed:
		return nil, transport.ErrClosed
	}
}

func (c *scriptConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *scriptConn) RemoteAddr() string { return "script://peer" }

// next returns the node's next frame, failing the test after timeout.
func (c *scriptConn) next(t *testing.T, timeout time.Duration, what string) protocol.Message {
	t.Helper()
	select {
	case m := <-c.sent:
		return m
	case <-time.After(timeout):
		t.Fatalf("%s: nothing sent within %v", what, timeout)
		return nil
	}
}

// announced lists the piece indices a frame announces (nil for any frame
// that is not a Have or HaveBatch).
func announced(m protocol.Message) []int32 {
	switch f := m.(type) {
	case protocol.Have:
		return []int32{f.Index}
	case protocol.HaveBatch:
		return f.Indices
	}
	return nil
}

// gain records piece index as verified on n, as handlePiece does after a
// successful Put.
func gain(n *Node, index int) {
	n.mu.Lock()
	n.noteGainedLocked(index)
	n.mu.Unlock()
}

// TestHandshakeAnnouncesGainsInFlight: a dialer sends Hello+Bitfield and
// then blocks in Recv until the peer's Hello arrives; only then is the link
// registered. A piece verified inside that window used to be in neither the
// Bitfield (already sent) nor any Have (no link to announce on yet), so the
// peer believed we lacked it for the life of the link. The Bitfield and the
// link's gain-log cursor are now read in one section, and the writer's
// first check sees the backlog — with no signal from anyone: the node's tick
// is an hour away, so nothing else could have announced it.
func TestHandshakeAnnouncesGainsInFlight(t *testing.T) {
	manifest, content := clusterFixture(t)
	n := fixtureNode(t, Config{Algorithm: algo.Altruism, Store: piece.NewStore(manifest), DecisionInterval: time.Hour})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Stop() })

	conn := newScriptConn()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.handleConn(conn, 0)
	}()
	if _, ok := conn.next(t, 5*time.Second, "our Hello").(protocol.Hello); !ok {
		t.Fatal("the dialer did not open with a Hello")
	}
	bits, ok := conn.next(t, 5*time.Second, "our Bitfield").(protocol.Bitfield)
	if !ok || bits.Bits[0] != 0 {
		t.Fatalf("the dialer followed with %+v, want an empty Bitfield", bits)
	}

	// The handshake is in flight: our half is out, the peer's is not in.
	const idx = 3
	if err := n.cfg.Store.Put(idx, content[idx*testPieceSize:(idx+1)*testPieceSize]); err != nil {
		t.Fatal(err)
	}
	gain(n, idx)

	conn.in <- protocol.Hello{PeerID: 1, NumPieces: testPieces}
	conn.in <- protocol.Bitfield{NumPieces: testPieces, Bits: make([]byte, (testPieces+7)/8)}
	for deadline := time.After(500 * time.Millisecond); ; {
		select {
		case m := <-conn.sent:
			if slices.Contains(announced(m), idx) {
				return
			}
		case <-deadline:
			t.Fatalf("piece %d, verified mid-handshake, was never announced", idx)
		}
	}
}

// TestWriterCoalescesGains: gains made while the writer is held up in Send
// leave as exactly one frame, in gain order and ahead of what was queued
// before them, and the link is not flushed until that frame has reached the
// conn. A gain signals nobody, so the first one needs the tick's flushLinks
// to reach a parked writer; the burst needs none — the writer finds it when
// it comes back from the conn.
func TestWriterCoalescesGains(t *testing.T) {
	manifest, _ := clusterFixture(t)
	n := fixtureNode(t, Config{Algorithm: algo.Altruism, Store: piece.NewStore(manifest)})
	r, conn := fixtureRemote(n, 1, true)
	link(t, n, r)
	done := make(chan struct{})
	go func() { defer close(done); r.writeLoop() }()

	gain(n, 9)
	n.flushLinks() // the writer takes the gain and stalls on the shut gate
	waitFor(t, "the writer to take the first announcement", r.isWriting)
	queued := protocol.Key{KeyID: 5}
	r.enqueue(queued, reply, nil)
	burst := []int32{4, 15, 0, 7, 11}
	for _, idx := range burst {
		gain(n, int(idx))
	}
	if r.flushed() {
		t.Error("flushed() with five gains unannounced")
	}
	if got := r.queued(); got != 2 {
		t.Errorf("queued() = %d, want 2: the Key, and one frame for the pending window", got)
	}
	gain(n, 4) // a duplicate gain is not a gain
	close(conn.gate)
	waitFor(t, "the announcements to land", r.flushed)
	r.closeOutbox()
	<-done

	conn.mu.Lock()
	defer conn.mu.Unlock()
	want := []protocol.Message{protocol.Have{Index: 9}, protocol.HaveBatch{Indices: burst}, queued}
	if !reflect.DeepEqual(conn.sent, want) {
		t.Errorf("wire saw %+v, want %+v", conn.sent, want)
	}
	if got := n.metrics.framesControl.Load(); got != 3 {
		t.Errorf(`node_frames_sent_total{class="control"} = %d, want 3`, got)
	}
}

// TestHaveBatchEqualsSingleHaves: however a peer's gain sequence is cut
// into Have and HaveBatch frames — repeats and empty batches included — the
// receiver ends in the state the same indices as single Haves leave it in,
// and the strategy view's interest answer agrees with a recount of the two
// holdings.
func TestHaveBatchEqualsSingleHaves(t *testing.T) {
	const pieces = 200
	manifest, err := piece.SyntheticManifest(pieces, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	for round := 0; round < 100; round++ {
		ours := rng.Perm(pieces)[:rng.Intn(pieces)]
		seq := make([]int32, rng.Intn(2*pieces))
		for i := range seq {
			seq[i] = int32(rng.Intn(pieces))
		}
		fixture := func() (*Node, *remote) {
			store := piece.NewStore(manifest)
			for _, i := range ours {
				if err := store.Put(i, piece.SyntheticPiece(i, 16)); err != nil {
					t.Fatal(err)
				}
			}
			n := fixtureNode(t, Config{Algorithm: algo.Altruism, Store: store})
			r, _ := fixtureRemote(n, 1, false)
			link(t, n, r)
			return n, r
		}

		single, rs := fixture()
		for _, idx := range seq {
			if single.dispatch(rs, protocol.Have{Index: idx}) {
				t.Fatalf("round %d: Have{%d} dropped the link", round, idx)
			}
		}

		split, rb := fixture()
		for rest := seq; len(rest) > 0 || rng.Intn(4) == 0; {
			k := 0
			if len(rest) > 0 {
				k = rng.Intn(min(len(rest), 24) + 1)
			}
			var frame protocol.Message = protocol.HaveBatch{Indices: rest[:k]}
			if k == 1 && rng.Intn(2) == 0 {
				frame = protocol.Have{Index: rest[0]}
			}
			if split.dispatch(rb, frame) {
				t.Fatalf("round %d: %+v dropped the link", round, frame)
			}
			rest = rest[k:]
		}

		if !slices.Equal(rs.have.Words(), rb.have.Words()) || rs.have.Count() != rb.have.Count() {
			t.Fatalf("round %d: r.have differs: %d vs %d pieces", round, rs.have.Count(), rb.have.Count())
		}
		for _, n := range []*Node{single, split} {
			r := n.linkedLocked(1)
			if got, want := n.view().WantsFromMe(1), r.have.CountMissingFrom(n.myBits) > 0; got != want {
				t.Fatalf("round %d: WantsFromMe = %v, recount of the holdings says %v", round, got, want)
			}
		}
	}
}
