package node

import (
	"sync"
	"testing"
	"time"

	"repro/internal/algo"
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
	n, err := New(Config{Algorithm: algo.Altruism, Store: store, Transport: transport.NewMem(), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	conn := &gateConn{gate: make(chan struct{})}
	if !stalled {
		close(conn.gate)
	}
	r := newRemote(n, 1, conn, "")
	r.theyNeed, r.iNeed = n.myBits.DiffCounts(r.have)
	return n, r, conn
}

// fillBulk queues bulk frames up to the backpressure bound.
func fillBulk(t *testing.T, r *remote) {
	t.Helper()
	for i := 0; i < maxQueuedData; i++ {
		if !r.enqueue(protocol.Piece{Index: int32(i % testPieces), RepaysKeyID: protocol.NoRepay}, true, nil) {
			t.Fatalf("bulk frame %d refused below the bound", i+1)
		}
	}
}

// TestOutboxContract pins what remote.enqueue — the one way into a peer's
// outbox — promises each class of frame.
func TestOutboxContract(t *testing.T) {
	bulk := protocol.Piece{Index: 1, RepaysKeyID: protocol.NoRepay}
	control := protocol.Have{Index: 1}
	rows := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"bulk is refused and counted at the bound, control is not", func(t *testing.T) {
			n, r, _ := outboxFixture(t, nil, false)
			fillBulk(t, r)
			if r.enqueue(bulk, true, nil) {
				t.Errorf("bulk frame %d accepted", maxQueuedData+1)
			}
			if got := n.metrics.backpressure.Value(); got != 1 {
				t.Errorf("node_backpressure_refusals_total = %d, want 1", got)
			}
			if !r.enqueue(control, false, nil) {
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
			if r.outData != maxQueuedData || n.metrics.backpressure.Value() != 0 {
				t.Errorf("outData = %d, refusals = %d: repayment counted as bulk", r.outData, n.metrics.backpressure.Value())
			}
			r.closeOutbox()
			r.writeLoop() // drains what is queued, then returns
			if got := n.metrics.framesControl.Value(); got != 1 {
				t.Errorf(`node_frames_sent_total{class="control"} = %d, want 1`, got)
			}
			if got := n.metrics.framesBulk.Value(); got != maxQueuedData {
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
			if r.enqueue(bulk, true, nil) {
				t.Error("bulk frame accepted while a full batch was still being written")
			}
			close(conn.gate)
			waitFor(t, "the drain to land", r.flushed)
			if !r.enqueue(bulk, true, nil) {
				t.Error("bulk frame refused after the drain landed")
			}
			r.closeOutbox()
			<-done
		}},
		{"a closed outbox drops both classes without counting a refusal", func(t *testing.T) {
			n, r, _ := outboxFixture(t, nil, false)
			r.closeOutbox()
			if r.enqueue(bulk, true, nil) || r.enqueue(control, false, nil) {
				t.Error("closed outbox accepted a frame")
			}
			if got := n.metrics.backpressure.Value(); got != 0 || r.queued() != 0 {
				t.Errorf("refusals = %d, queued = %d, want 0 and 0", got, r.queued())
			}
		}},
		{"a traced frame yields queued → wait → send ending at its context", func(t *testing.T) {
			tr := tracing.NewCollector(tracing.Config{SampleEvery: 1})
			_, r, conn := outboxFixture(t, tr, false)
			ut := newUploadTrace(tr, tr.NewID(), 0, 3, r.id)
			if !r.enqueue(protocol.Piece{Index: 3, RepaysKeyID: protocol.NoRepay, Trace: ut.tc}, true, ut) {
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

// TestResendCooldown pins the one picker's two modes: the upload scheduler
// (cooldown on) never re-offers a piece it pushed to this peer within
// resendCooldown, the reciprocation path (cooldown off) may, and the
// stamps belong to the link — a reconnected peer starts with none.
func TestResendCooldown(t *testing.T) {
	n, r, conn := outboxFixture(t, nil, false)
	n.mu.Lock()
	defer n.mu.Unlock()

	const fresh = 5
	for i := 0; i < testPieces; i++ {
		if i != fresh {
			r.recent[i] = time.Now()
		}
	}
	for draw := 0; draw < 64; draw++ {
		if got := n.pickWantedLocked(r, true); got != fresh {
			t.Fatalf("draw %d picked %d, want %d: every other piece is cooling down", draw, got, fresh)
		}
	}
	r.recent[fresh] = time.Now()
	if got := n.pickWantedLocked(r, true); got != -1 {
		t.Errorf("picked %d with every wanted piece cooling down", got)
	}
	if got := n.pickWantedLocked(r, false); got < 0 {
		t.Error("the reciprocation pick found nothing: it must ignore the cooldown")
	}

	const aged = 9
	r.recent[aged] = time.Now().Add(-resendCooldown - time.Millisecond)
	if got := n.pickWantedLocked(r, true); got != aged {
		t.Errorf("picked %d, want %d: its stamp has aged out", got, aged)
	}

	again := newRemote(n, r.id, conn, "") // the same peer, reconnected
	again.theyNeed, again.iNeed = n.myBits.DiffCounts(again.have)
	if len(again.recent) != 0 || n.pickWantedLocked(again, true) < 0 {
		t.Error("a reconnected peer inherited the old link's cooldown")
	}
}
