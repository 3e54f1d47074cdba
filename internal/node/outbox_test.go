package node

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/attest"
	"repro/internal/piece"
	"repro/internal/protocol"
	"repro/internal/tracing"
	"repro/internal/transport"
)

// gateConn is a transport.Conn whose Send waits for the gate to open and
// then records the frame: a peer the test can stall and release at will.
type gateConn struct {
	gate chan struct{} // closed = open

	mu   sync.Mutex
	sent []protocol.Message
}

func (c *gateConn) Send(m protocol.Message) error {
	<-c.gate
	c.mu.Lock()
	c.sent = append(c.sent, m)
	c.mu.Unlock()
	return nil
}

func (c *gateConn) Recv() (protocol.Message, error) { return nil, transport.ErrClosed }
func (c *gateConn) Close() error                    { return nil }
func (c *gateConn) RemoteAddr() string              { return "gate://peer" }

// outboxFixture builds an unstarted seed node and one remote of it over a
// gateConn (gate open unless stalled), with no writer running: rows drain
// by calling writeLoop themselves.
func outboxFixture(t *testing.T, tr *tracing.Collector, stalled bool) (*Node, *remote, *gateConn) {
	t.Helper()
	manifest, content := clusterFixture(t)
	store, err := piece.NewSeedStore(manifest, content)
	if err != nil {
		t.Fatal(err)
	}
	n := fixtureNode(t, Config{Algorithm: algo.Altruism, Store: store, Tracer: tr})
	r, conn := fixtureRemote(n, 1, stalled)
	return n, r, conn
}

// fixtureNode builds an unstarted node from cfg over a mem transport.
func fixtureNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	cfg.Transport = transport.NewMem()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// fixtureRemote builds n's link to peer id over a gateConn, as a handshake
// would before the peer's bitfield lands; link enters it in n.links.
func fixtureRemote(n *Node, id int, stalled bool) (*remote, *gateConn) {
	conn := &gateConn{gate: make(chan struct{})}
	if !stalled {
		close(conn.gate)
	}
	return newRemote(n, id, conn, "", 0, n.gainLen.Load()), conn
}

// link enters rs into n's neighbour set through the handshake's own insert,
// so no fixture can build a set out of ID order or with a peer twice.
func link(t testing.TB, n *Node, rs ...*remote) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, r := range rs {
		if !n.linkLocked(r) {
			t.Fatalf("peer %d linked twice", r.id)
		}
	}
}

// fillBulk queues bulk frames up to the backpressure bound.
func fillBulk(t *testing.T, r *remote) {
	t.Helper()
	for i := 0; i < maxQueuedData; i++ {
		if !r.enqueue(protocol.Piece{Index: int32(i % testPieces), RepaysKeyID: protocol.NoRepay}, tickPush, nil) {
			t.Fatalf("bulk frame %d refused below the bound", i+1)
		}
	}
}

// TestOutboxContract pins what remote.enqueue — the one way into a peer's
// outbox — promises each class of frame.
func TestOutboxContract(t *testing.T) {
	bulk := protocol.Piece{Index: 1, RepaysKeyID: protocol.NoRepay}
	control := protocol.Key{KeyID: 1}
	rows := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"bulk is refused and counted at the bound, control is not", func(t *testing.T) {
			n, r, _ := outboxFixture(t, nil, false)
			fillBulk(t, r)
			if r.enqueue(bulk, tickPush, nil) {
				t.Errorf("bulk frame %d accepted", maxQueuedData+1)
			}
			if got := n.metrics.backpressure.Load(); got != 1 {
				t.Errorf("node_backpressure_refusals_total = %d, want 1", got)
			}
			if !r.enqueue(control, reply, nil) {
				t.Error("control frame refused behind a full bulk queue")
			}
			if r.outData != maxQueuedData || r.queued() != maxQueuedData+1 {
				t.Errorf("outData = %d, queued = %d, want %d and %d", r.outData, r.queued(), maxQueuedData, maxQueuedData+1)
			}
		}},
		{"a repayment piece is a control frame", func(t *testing.T) {
			n, r, conn := outboxFixture(t, nil, false)
			fillBulk(t, r)
			data, err := n.cfg.Store.GetRef(2)
			if err != nil {
				t.Fatal(err)
			}
			if !n.sendPiece(r, 2, data, 7, nil) {
				t.Fatal("repayment piece refused")
			}
			if r.outData != maxQueuedData || n.metrics.backpressure.Load() != 0 {
				t.Errorf("outData = %d, refusals = %d: repayment counted as bulk", r.outData, n.metrics.backpressure.Load())
			}
			r.closeOutbox()
			r.writeLoop() // drains what is queued, then returns
			if got := n.metrics.framesControl.Load(); got != 1 {
				t.Errorf(`node_frames_sent_total{class="control"} = %d, want 1`, got)
			}
			if got := n.metrics.framesBulk.Load(); got != maxQueuedData {
				t.Errorf(`node_frames_sent_total{class="bulk"} = %d, want %d`, got, maxQueuedData)
			}
			if last := conn.sent[len(conn.sent)-1].(protocol.Piece); last.RepaysKeyID != 7 {
				t.Errorf("last frame on the wire repays %d, want 7", last.RepaysKeyID)
			}
		}},
		{"outData is released only once the drain reaches the conn", func(t *testing.T) {
			_, r, conn := outboxFixture(t, nil, true)
			done := make(chan struct{})
			go func() { defer close(done); r.writeLoop() }()
			fillBulk(t, r)
			waitFor(t, "the writer to take the batch", r.isWriting)
			if r.enqueue(bulk, tickPush, nil) {
				t.Error("bulk frame accepted while a full batch was still being written")
			}
			close(conn.gate)
			waitFor(t, "the drain to land", r.flushed)
			if !r.enqueue(bulk, tickPush, nil) {
				t.Error("bulk frame refused after the drain landed")
			}
			r.closeOutbox()
			<-done
		}},
		{"tick pushes wait for the tick's flush, handler frames wake", func(t *testing.T) {
			// Whatever a counterpart may be blocked on — the key or the
			// repayment that releases one, a witness's receipt, the contacts a
			// joiner dials next — wakes the writer from enqueue. A tick's push
			// and the sender's proof copy wait for the flush that closes the
			// tick, so the writer drains them with the tick's other frames.
			n, r, _ := outboxFixture(t, nil, false)
			link(t, n, r)
			data, err := n.cfg.Store.GetRef(2)
			if err != nil {
				t.Fatal(err)
			}
			woke := parkOn(r)
			if !n.sendPiece(r, 2, data, protocol.NoRepay, nil) || !r.enqueue(protocol.Attest{}, receiptCopy, nil) {
				t.Fatal("tick push or receipt copy refused")
			}
			expectParked(t, woke, "a tick push or a receipt copy")
			n.flushLinks()
			expectWoken(t, woke, "the tick's closing flush")

			for _, m := range []protocol.Message{control, protocol.AttestedReceipt{KeyID: 1}, protocol.Nodes{}} {
				woke := parkOn(r)
				r.enqueue(m, reply, nil)
				expectWoken(t, woke, "a queued "+reflect.TypeOf(m).Name())
			}
			woke = parkOn(r)
			n.sendPiece(r, 2, data, 7, nil)
			expectWoken(t, woke, "a repayment piece")
		}},
		{"a forwarded seal wakes its witness's writer at once", func(t *testing.T) {
			// The origin releases the seal's key only on the witness's
			// receipt, so the forward must not wait for the forwarder's tick.
			manifest, _ := clusterFixture(t)
			n := fixtureNode(t, Config{Algorithm: algo.TChain, Store: piece.NewStore(manifest), Identity: attest.NewKeyFromSeed(0, 1)})
			origin, _ := fixtureRemote(n, 1, false)
			witness, _ := fixtureRemote(n, 2, false)
			link(t, n, origin, witness)
			seal, _ := rawSeal(t, int32(origin.id), 11, 3)
			woke := parkOn(witness)
			n.dispatch(origin, seal)
			if witness.queued() != 1 {
				t.Fatalf("the witness link holds %d frames, want the forwarded seal", witness.queued())
			}
			expectWoken(t, woke, "a forwarded seal")
		}},
		{"the tick's end wakes each link with a push, no other", func(t *testing.T) {
			manifest, content := clusterFixture(t)
			store, err := piece.NewSeedStore(manifest, content)
			if err != nil {
				t.Fatal(err)
			}
			n := fixtureNode(t, Config{Algorithm: algo.Altruism, Store: store})
			a, _ := fixtureRemote(n, 1, false)
			b, _ := fixtureRemote(n, 2, false)
			done, _ := fixtureRemote(n, 3, false) // holds every piece: asks for nothing
			for i := 0; i < testPieces; i++ {
				done.have.Set(i)
			}
			link(t, n, a, b, done)
			askFor(t, n, a, 0, 1, 2, 3, 4, 5, 6, 7)
			askFor(t, n, b, 8, 9, 10, 11, 12, 13, 14, 15)
			wokeA, wokeB, wokeDone := parkOn(a), parkOn(b), parkOn(done)
			n.tick(int64(time.Millisecond))
			if a.queued() != maxInFlight || b.queued() != maxInFlight {
				t.Fatalf("the tick queued %d and %d pushes, want %d on each link", a.queued(), b.queued(), maxInFlight)
			}
			expectWoken(t, wokeA, "the end of a tick that pushed to its link")
			expectWoken(t, wokeB, "the end of a tick that pushed to its link")
			expectParked(t, wokeDone, "a tick that pushed nothing to its link")
		}},
		{"a closed outbox drops both classes without counting a refusal", func(t *testing.T) {
			n, r, _ := outboxFixture(t, nil, false)
			r.closeOutbox()
			if r.enqueue(bulk, tickPush, nil) || r.enqueue(control, reply, nil) {
				t.Error("closed outbox accepted a frame")
			}
			if got := n.metrics.backpressure.Load(); got != 0 || r.queued() != 0 {
				t.Errorf("refusals = %d, queued = %d, want 0 and 0", got, r.queued())
			}
		}},
		{"a traced frame yields queued → wait → send ending at its context", func(t *testing.T) {
			tr := tracing.NewCollector(tracing.Config{SampleEvery: 1})
			_, r, conn := outboxFixture(t, tr, false)
			ut := newUploadTrace(tr, tr.NewID(), 0, 3, r.id)
			if !r.enqueue(protocol.Piece{Index: 3, RepaysKeyID: protocol.NoRepay, Trace: ut.tc}, tickPush, ut) {
				t.Fatal("traced frame refused")
			}
			r.closeOutbox()
			r.writeLoop()
			spans, _ := tr.Snapshot()
			if len(spans) != 3 {
				t.Fatalf("recorded %d spans, want 3: %+v", len(spans), spans)
			}
			parent := uint64(0)
			for i, name := range []string{tracing.SpanRequestQueued, tracing.SpanOutboxWait, tracing.SpanWireSend} {
				if spans[i].Name != name || spans[i].ParentID != parent || spans[i].TraceID != ut.tc.TraceID {
					t.Errorf("span %d = %+v, want %s under parent %d", i, spans[i], name, parent)
				}
				parent = spans[i].SpanID
			}
			if onWire := conn.sent[0].(protocol.Piece).Trace; onWire != ut.tc || parent != onWire.SpanID {
				t.Errorf("frame carries %+v, chain ends at span %d, want both at %+v", onWire, parent, ut.tc)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, row.run)
	}
}

// isWriting reports whether a drained batch is on its way to the wire.
func (r *remote) isWriting() bool {
	r.outMu.Lock()
	defer r.outMu.Unlock()
	return r.writing
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResendCooldown pins how long a request holds its piece. A leecher
// linked to two peers holding everything asks each for maxInFlight pieces,
// every piece pending on one link; a request not served within
// resendCooldown returns its piece to the pool exactly then, not a
// nanosecond before, and the pass that returns it asks again. A piece whose
// seal is parked stays pending on the sealing link until its key opens it;
// one whose key never comes returns with the cooldown. The requests belong
// to the link: a reconnected peer starts with none, and what the old link
// was asked returns to the pool. Time is the argument: tick instants, no
// sleeping.
func TestResendCooldown(t *testing.T) {
	manifest, _ := clusterFixture(t)
	n := fixtureNode(t, Config{Algorithm: algo.TChain, Store: piece.NewStore(manifest)})
	a, _ := fixtureRemote(n, 1, false)
	b, _ := fixtureRemote(n, 2, false)
	for _, r := range []*remote{a, b} {
		for i := 0; i < testPieces; i++ {
			r.have.Set(i)
		}
	}
	link(t, n, a, b)
	// asked lists r's requests, each with the instant it was asked at.
	asked := func(r *remote) map[int32]int64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		out := make(map[int32]int64)
		for _, q := range r.asked.q[:r.asked.n] {
			out[q.idx] = q.at
		}
		return out
	}
	pending := func() int {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.pending.Count()
	}
	all := func(at int64) {
		t.Helper()
		qa, qb := asked(a), asked(b)
		if len(qa) != maxInFlight || len(qb) != maxInFlight || pending() != testPieces {
			t.Fatalf("%d and %d pieces asked, %d pending; want %d each and all %d", len(qa), len(qb), pending(), maxInFlight, testPieces)
		}
		for idx, when := range qa {
			if _, twice := qb[idx]; twice || when != at {
				t.Fatalf("piece %d asked of both links (%v) or at %d, want once at %d", idx, twice, when, at)
			}
		}
	}

	t0 := int64(time.Minute)
	n.request(t0)
	all(t0)
	due := t0 + int64(resendCooldown)
	n.request(due - 1)
	all(t0)
	n.request(due)
	all(due)

	// A parked seal keeps its piece pending on the link that sealed it.
	var ids []int32
	for idx := range asked(a) {
		ids = append(ids, idx)
	}
	slices.Sort(ids)
	opened, unopened := ids[0], ids[1]
	seal, key := rawSeal(t, int32(a.id), 1, int(opened))
	n.dispatch(a, seal)
	other, _ := rawSeal(t, int32(a.id), 2, int(unopened))
	n.dispatch(a, other)
	if _, still := asked(a)[opened]; !still || pending() != testPieces {
		t.Fatal("a parked seal's piece left its request or the pending set")
	}
	n.dispatch(a, key)
	if _, still := asked(a)[opened]; still || !n.myBits.Has(int(opened)) || pending() != testPieces-1 {
		t.Fatalf("the opened piece is still asked (%v) or not held (%v), %d pending", still, n.myBits.Has(int(opened)), pending())
	}
	n.request(due + int64(resendCooldown) - 1)
	if at, still := asked(a)[unopened]; !still || at != due {
		t.Fatal("a sealed piece whose key has not come left the queue before the cooldown")
	}
	n.request(due + int64(resendCooldown))
	if qa, qb := asked(a), asked(b); qa[unopened] == due || qb[unopened] == due {
		t.Error("a sealed piece whose key never came is still asked at its old instant past the cooldown")
	}

	again, _ := fixtureRemote(n, a.id, false) // the same peer, reconnected
	if again.asked.n != 0 {
		t.Error("a reconnected peer inherited the old link's requests")
	}
	n.mu.Lock()
	n.unlinkLocked(a)
	n.mu.Unlock()
	if got, want := pending(), len(asked(b)); got != want {
		t.Errorf("%d pieces pending once link %d went down, want the %d asked of link %d", got, a.id, want, b.id)
	}
}

// TestWitnessKeepsNoCiphertext pins who parks a sealed piece, and in which
// buffer. The receiver of a seal keeps the frame's own ciphertext until its
// key arrives and reciprocates — here by forwarding that same buffer to a
// witness, having no piece the origin lacks; when the key lands while the
// forward is still queued, the open must leave that buffer ciphertext. The
// witness of a forward keeps nothing: the origin releases the key to the
// forwarder only, so a parked copy could never be opened and would sit in
// pendingSeals until Stop. It still owes the origin a signed receipt naming
// the forwarder, the piece and the ciphertext's size — under the key the
// link to the origin affords: MAC'd to a link both ends keyed from
// registered session secrets, Ed25519 otherwise.
func TestWitnessKeepsNoCiphertext(t *testing.T) {
	const originID, otherID, farOriginID = 1, 2, 5
	manifest, _ := clusterFixture(t)
	dir := attest.NewDirectory()
	dir.Register(originID, attest.NewKeyFromSeed(originID, 1).Identity())
	for _, arm := range []struct {
		name   string
		cfg    Config
		scheme attest.Scheme // of the receipt a neighbouring origin is sent
	}{
		{"ed25519", Config{}, attest.SchemeEd25519},
		{"session", Config{Directory: dir, AttestScheme: attest.SchemeSession}, attest.SchemeLink},
	} {
		t.Run(arm.name, func(t *testing.T) {
			cfg := arm.cfg
			cfg.Algorithm, cfg.Store, cfg.Identity = algo.TChain, piece.NewStore(manifest), attest.NewKeyFromSeed(0, 1)
			n := fixtureNode(t, cfg)
			origin, _ := fixtureRemote(n, originID, false)
			other, _ := fixtureRemote(n, otherID, false)
			link(t, n, origin, other)
			seal, key := rawSeal(t, originID, 11, 3)
			ciphertext := bytes.Clone(seal.Ciphertext)
			// attests: the receipt names otherID forwarding the seal, under a
			// signature the origin it is meant for accepts.
			attests := func(receipt protocol.AttestedReceipt, scheme attest.Scheme, addressee int32) bool {
				att := receipt.Att
				accepted := n.verifier.Check(att) == nil
				if scheme == attest.SchemeLink {
					accepted = n.verifier.CheckLink(att, addressee) == nil
				}
				return accepted && att.Scheme == scheme && receipt.KeyID == seal.KeyID && att.Sender == otherID &&
					att.Receiver == 0 && att.Index == seal.Index && att.Bytes == testPieceSize
			}

			forwarded := seal
			forwarded.Forwarded, forwarded.ForwarderID = true, otherID
			n.dispatch(other, forwarded)
			if got := n.Stats().SealedPending; got != 0 {
				t.Errorf("SealedPending = %d after witnessing a forward, want 0", got)
			}
			if origin.queued() != 1 || other.queued() != 0 {
				t.Fatalf("witness queued %d frames to the origin and %d to the forwarder, want 1 and 0", origin.queued(), other.queued())
			}
			receipt, ok := origin.outbox[0].(protocol.AttestedReceipt)
			if !ok {
				t.Fatalf("witness sent the origin %T, want an AttestedReceipt", origin.outbox[0])
			}
			if !attests(receipt, arm.scheme, originID) {
				t.Errorf("receipt %+v does not attest, under the %v scheme, peer %d forwarding %d bytes of piece %d under key %d",
					receipt, arm.scheme, otherID, testPieceSize, seal.Index, seal.KeyID)
			}

			// An origin we do not neighbor gets its receipt over a transient
			// connection, where no link key exists: Ed25519 whatever the scheme.
			l, err := n.cfg.Transport.Listen("")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			far := forwarded
			far.OriginID, far.OriginAddr = farOriginID, l.Addr()
			n.dispatch(other, far)
			conn, err := l.Accept()
			if err != nil {
				t.Fatal(err)
			}
			msg, err := conn.Recv()
			conn.Close()
			n.wg.Wait() // the transient sender, released by the close
			if receipt, ok := msg.(protocol.AttestedReceipt); err != nil || !ok || !attests(receipt, attest.SchemeEd25519, farOriginID) {
				t.Errorf("transient session delivered %+v (%v), want an Ed25519 receipt for the forward", msg, err)
			}

			n.dispatch(origin, seal)
			if got := n.Stats().SealedPending; got != 1 {
				t.Errorf("SealedPending = %d after receiving a seal, want 1", got)
			}
			if other.queued() != 1 {
				t.Fatalf("receiver queued %d frames to its only other neighbor, want the forwarded seal", other.queued())
			}
			fwd, ok := other.outbox[0].(protocol.SealedPiece)
			if !ok || !fwd.Forwarded || fwd.ForwarderID != 0 || fwd.KeyID != seal.KeyID || len(fwd.Ciphertext) != testPieceSize {
				t.Fatalf("receiver forwarded %+v, want seal %d marked as forwarded by node 0", other.outbox[0], seal.KeyID)
			}
			if &fwd.Ciphertext[0] != &seal.Ciphertext[0] {
				t.Error("the forward copied the ciphertext instead of sharing the frame's buffer")
			}

			n.dispatch(origin, key)
			if !n.cfg.Store.Has(int(seal.Index)) || n.Stats().SealedPending != 0 {
				t.Fatal("the origin's key did not open its parked seal")
			}
			if !bytes.Equal(fwd.Ciphertext, ciphertext) || bytes.Equal(fwd.Ciphertext, piece.SyntheticPiece(int(seal.Index), testPieceSize)) {
				t.Error("opening the seal rewrote the buffer its queued forward will put on the wire")
			}
		})
	}
}
