package node

import (
	"encoding/json"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/attest"
	"repro/internal/piece"
	"repro/internal/protocol"
	"repro/internal/reputation"
	"repro/internal/tracing"
	"repro/internal/transport"
)

// startChain builds a 3-node line topology over real TCP — seed 0 — 1 — 2,
// each node dialing only its predecessor (MaxNeighbors 1, so node 2 leaves
// the seed node 1 passes on undialed) — with every push traced into one shared
// collector. A piece reaching node 2 must hop through node 1, so its trace
// must span all three nodes.
func startChain(t *testing.T) ([]*Node, *tracing.Collector) {
	t.Helper()
	manifest, content := clusterFixture(t)
	tr := tracing.NewCollector(tracing.Config{SampleEvery: 1, Capacity: 1 << 15})
	ledger := reputation.NewLedger(attest.AcceptAll{})
	var nodes []*Node
	for i := 0; i < 3; i++ {
		var store *piece.Store
		if i == 0 {
			seeded, err := piece.NewSeedStore(manifest, content)
			if err != nil {
				t.Fatal(err)
			}
			store = seeded
		} else {
			store = piece.NewStore(manifest)
		}
		var bootstrap []string
		if i > 0 {
			bootstrap = []string{nodes[i-1].Addr()} // chain: each node knows only its predecessor
		}
		n, err := New(Config{
			ID:               i,
			Algorithm:        algo.Altruism,
			Store:            store,
			Transport:        transport.NewTCP(),
			ListenAddr:       "127.0.0.1:0",
			Bootstrap:        bootstrap,
			MaxNeighbors:     1,
			DecisionInterval: 2 * time.Millisecond,
			Ledger:           ledger,
			Tracer:           tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	return nodes, tr
}

// TestTraceChainPropagation downloads through a 3-node TCP chain and checks
// that at least one trace tells the full multi-hop story: walking parent
// links from a store.verify on node 2 must pass through every expected span
// — request.queued → outbox.wait → wire.send → wire.recv → store.verify on
// each hop — visit all three nodes in causal order, and terminate at a root
// request.queued on the seed.
func TestTraceChainPropagation(t *testing.T) {
	nodes, tr := startChain(t)
	for i := 1; i < 3; i++ {
		if err := waitComplete(t, nodes[i], 30*time.Second); err != nil {
			t.Fatalf("node %d incomplete: %v (%+v)", i, err, nodes[i].Stats())
		}
	}
	spans, dropped := tr.Snapshot()
	if dropped != 0 {
		t.Fatalf("collector dropped %d spans; grow Capacity", dropped)
	}
	byID := make(map[uint64]tracing.Span, len(spans))
	for _, s := range spans {
		byID[s.SpanID] = s
	}

	// The receiver-side chain every hop appends, innermost first.
	hopNames := map[string]bool{
		tracing.SpanWireRecv: true, tracing.SpanStoreVerify: true,
		tracing.SpanRequestQueued: true, tracing.SpanOutboxWait: true,
		tracing.SpanWireSend: true, tracing.SpanAttestSign: true,
		tracing.SpanLedgerCredit: true,
	}
	verified := 0
	for _, s := range spans {
		// ledger.credit is the deepest receiver-side span — its ancestor
		// chain covers the whole hop (credit → sign → verify → recv) plus
		// everything upstream of the frame.
		if s.Name != tracing.SpanLedgerCredit || s.Node != 2 {
			continue
		}
		// Walk ancestors to the root, recording nodes and names touched and
		// checking causal clock order (parents start no later than children).
		nodesSeen := map[int]bool{}
		namesSeen := map[string]bool{}
		cur := s
		ok := true
		for depth := 0; ; depth++ {
			if depth > 64 {
				t.Fatalf("parent walk did not terminate from span %d", s.SpanID)
			}
			nodesSeen[cur.Node] = true
			namesSeen[cur.Name] = true
			if cur.ParentID == 0 {
				break
			}
			parent, found := byID[cur.ParentID]
			if !found {
				ok = false // ancestor overwritten or foreign; try another verify span
				break
			}
			if parent.Start > cur.Start {
				t.Errorf("span %s (start %d) precedes its parent %s (start %d)",
					cur.Name, cur.Start, parent.Name, parent.Start)
			}
			cur = parent
		}
		if !ok {
			continue
		}
		if cur.Name != tracing.SpanRequestQueued || cur.Node != 0 {
			t.Errorf("trace %d roots at %s on node %d, want request.queued on seed 0",
				s.TraceID, cur.Name, cur.Node)
			continue
		}
		for name := range hopNames {
			if !namesSeen[name] {
				t.Errorf("trace %d: span %s missing from the causal walk", s.TraceID, name)
			}
		}
		if !nodesSeen[0] || !nodesSeen[1] || !nodesSeen[2] {
			t.Errorf("trace %d touched nodes %v, want all of 0,1,2", s.TraceID, nodesSeen)
			continue
		}
		verified++
	}
	if verified == 0 {
		t.Fatalf("no complete 3-node causal chain among %d spans", len(spans))
	}

	// The grouped view must agree: at least one trace spans all three nodes.
	crossNode := 0
	for _, trace := range tracing.Traces(spans) {
		if len(trace.Nodes()) == 3 {
			crossNode++
		}
	}
	if crossNode == 0 {
		t.Fatal("tracing.Traces found no trace spanning all 3 nodes")
	}
}

// blockConn is a transport.Conn whose Send blocks until Close — a peer that
// stopped reading. It deliberately does not implement transport.BatchSender,
// so the writer drains it frame by frame.
type blockConn struct {
	unblock chan struct{}
	once    sync.Once
}

func newBlockConn() *blockConn { return &blockConn{unblock: make(chan struct{})} }

func (c *blockConn) Send(protocol.Message) error {
	<-c.unblock
	return transport.ErrClosed
}

func (c *blockConn) Recv() (protocol.Message, error) {
	<-c.unblock
	return nil, transport.ErrClosed
}

func (c *blockConn) Close() error {
	c.once.Do(func() { close(c.unblock) })
	return nil
}

func (c *blockConn) RemoteAddr() string { return "block://peer" }

// closeHookConn is a gateConn whose Close runs onClose.
type closeHookConn struct {
	*gateConn
	onClose func()
}

func (c *closeHookConn) Close() error {
	c.onClose()
	return nil
}

// TestStopDrainAccounting checks Stop's drain window and its counters on
// the two links that matter. A wedged one: the frame stuck mid-Send is
// neither drained nor dropped, while everything still queued behind it lands
// in node_stop_drain_dropped_total — gains the link has not announced yet
// counting as the one frame they would have left as. And a healthy one
// whose writer is parked over gains and receipt copies no one signalled: the
// tick that would have flushed them died with n.done (here it is an hour
// away to begin with), so Stop must signal the writer itself — everything
// reaches the wire, nothing is dropped, and Stop returns at once instead of
// waiting out stopFlushTimeout.
func TestStopDrainAccounting(t *testing.T) {
	// link starts a node and registers one running link of it over conn.
	link := func(t *testing.T, conn transport.Conn) (*Node, *remote) {
		manifest, _ := clusterFixture(t)
		n := fixtureNode(t, Config{Algorithm: algo.Altruism, Store: piece.NewStore(manifest), DecisionInterval: time.Hour})
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		r := newRemote(n, 1, conn, "", 0, n.gainLen.Load())
		link(t, n, r)
		n.mu.Lock()
		n.conns[conn] = 0
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			r.writeLoop()
		}()
		return n, r
	}

	t.Run("wedged", func(t *testing.T) {
		n, r := link(t, newBlockConn())
		// First frame: the writer picks it up and wedges inside Send.
		r.enqueue(protocol.Key{KeyID: 0}, reply, nil)
		waitFor(t, "the writer to pick up the first frame", r.isWriting)
		// Four more queue up behind the wedged drain, and so does the
		// announcement of two gains.
		const stuck = 4 + 1
		for i := 1; i < stuck; i++ {
			r.enqueue(protocol.Key{KeyID: uint64(i)}, reply, nil)
		}
		gain(n, 6)
		gain(n, 7)

		saved := stopFlushTimeout
		stopFlushTimeout = 50 * time.Millisecond
		defer func() { stopFlushTimeout = saved }()
		if err := n.Stop(); err != nil {
			t.Fatal(err)
		}

		if got := n.metrics.stopDrainDropped.Load(); got != stuck {
			t.Errorf("node_stop_drain_dropped_total = %d, want %d", got, stuck)
		}
		if got := n.metrics.stopDrainFrames.Load(); got != 0 {
			t.Errorf("node_stop_drain_frames_total = %d, want 0 (the drain window was wedged)", got)
		}
	})

	t.Run("parked", func(t *testing.T) {
		conn := &gateConn{gate: make(chan struct{})}
		close(conn.gate)
		// Closing the conn ends the writer, as the reader's teardown does on a
		// real link; Stop closes it only after the drain window.
		var r *remote
		n, r := link(t, &closeHookConn{conn, func() { r.closeOutbox() }})
		// One signalled frame, and the wait for it to land, leaves the writer
		// on its way back to its Wait; the rest is queued behind its back.
		first := protocol.Key{KeyID: 9}
		r.enqueue(first, reply, nil)
		waitFor(t, "the first frame to land", r.flushed)
		acks := []protocol.Message{
			protocol.Attest{Att: n.signReceipt(1, 2, testPieceSize)},
			protocol.Attest{Att: n.signReceipt(1, 3, testPieceSize)},
		}
		for _, ack := range acks {
			r.enqueue(ack, receiptCopy, nil)
		}
		gain(n, 6)
		gain(n, 7)

		began := time.Now()
		if err := n.Stop(); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(began); took > stopFlushTimeout/4 {
			t.Errorf("Stop took %v with a healthy link: it waited on a writer nobody signalled (stopFlushTimeout is %v)", took, stopFlushTimeout)
		}
		if got := n.metrics.stopDrainDropped.Load(); got != 0 {
			t.Errorf("node_stop_drain_dropped_total = %d, want 0", got)
		}
		conn.mu.Lock()
		defer conn.mu.Unlock()
		var sentAcks int
		var sentHaves []int32
		for _, m := range conn.sent {
			if _, ack := m.(protocol.Attest); ack {
				sentAcks++
			}
			sentHaves = append(sentHaves, announced(m)...)
		}
		if sentAcks != len(acks) || !slices.Equal(sentHaves, []int32{6, 7}) {
			t.Errorf("wire saw %d receipt copies and announcements of %v in %+v, want %d and [6 7]", sentAcks, sentHaves, conn.sent, len(acks))
		}
	})
}

// scriptedConn is a link whose peer the test plays: Recv returns what is
// pushed on in and counts its calls; Send lets the handshake through and
// holds every later frame until gate opens; Close ends both.
type scriptedConn struct {
	in     chan protocol.Message
	gate   chan struct{}
	closed chan struct{}
	once   sync.Once
	recvs  atomic.Int64

	mu   sync.Mutex
	sent []protocol.Message
}

func (c *scriptedConn) Recv() (protocol.Message, error) {
	c.recvs.Add(1)
	select {
	case m := <-c.in:
		return m, nil
	case <-c.closed:
		return nil, transport.ErrClosed
	}
}

func (c *scriptedConn) Send(m protocol.Message) error {
	switch m.(type) {
	case protocol.Hello, protocol.Bitfield:
	default:
		select {
		case <-c.gate:
		case <-c.closed:
			return transport.ErrClosed
		}
	}
	c.mu.Lock()
	c.sent = append(c.sent, m)
	c.mu.Unlock()
	return nil
}

func (c *scriptedConn) Close() error       { c.once.Do(func() { close(c.closed) }); return nil }
func (c *scriptedConn) RemoteAddr() string { return "script://peer" }

func (c *scriptedConn) isClosed() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

// TestStopDrainOutlivesInboundFrame: a frame that lands while Stop is
// draining a link's writer must not end the link. The reader used to return
// at the first frame after Stop began and close the connection under the
// drain, so the receipt copies still queued never left (over TCP the close
// also reset the link); it now reads on until Stop closes the connection.
func TestStopDrainOutlivesInboundFrame(t *testing.T) {
	manifest, _ := clusterFixture(t)
	n := fixtureNode(t, Config{Algorithm: algo.Altruism, Store: piece.NewStore(manifest), DecisionInterval: time.Hour})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	conn := &scriptedConn{in: make(chan protocol.Message, 1), gate: make(chan struct{}), closed: make(chan struct{})}
	conn.in <- protocol.Hello{PeerID: 1, NumPieces: int32(manifest.NumPieces())}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.handleConn(conn, 1)
	}()
	var r *remote
	waitFor(t, "the link to register", func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		r = n.linkedLocked(1)
		return r != nil
	})
	const copies = 3
	for i := 0; i < copies; i++ {
		r.enqueue(protocol.Attest{Att: attest.Claim(int32(n.cfg.ID), 1, int32(i), testPieceSize)}, receiptCopy, nil)
	}

	stopped := make(chan error, 1)
	go func() { stopped <- n.Stop() }()
	waitFor(t, "the drain to reach the writer", r.isWriting)
	before := conn.recvs.Load()
	conn.in <- protocol.Have{Index: 0}
	waitFor(t, "the reader to take the frame", func() bool { return conn.recvs.Load() > before || conn.isClosed() })
	if conn.isClosed() {
		t.Fatal("the reader closed the link while Stop was still draining it")
	}
	close(conn.gate)
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	sent := 0
	for _, m := range conn.sent {
		if _, ok := m.(protocol.Attest); ok {
			sent++
		}
	}
	if sent != copies {
		t.Errorf("%d of %d receipt copies left before the link closed: %+v", sent, copies, conn.sent)
	}
}

// TestDebugTraceEndpoint checks /debug/trace: 404 with tracing off, JSON
// spans and Chrome export with it on.
func TestDebugTraceEndpoint(t *testing.T) {
	manifest, _ := clusterFixture(t)
	plain, err := New(Config{Algorithm: algo.Altruism, Store: piece.NewStore(manifest), Transport: transport.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	MetricsMux(plain).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != 404 {
		t.Fatalf("untraced node /debug/trace status %d, want 404", rec.Code)
	}

	tr := tracing.NewCollector(tracing.Config{SampleEvery: 1})
	traced, err := New(Config{ID: 7, Algorithm: algo.Altruism, Store: piece.NewStore(manifest), Transport: transport.NewMem(), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	tr.Record(tracing.Span{TraceID: 0xabc, SpanID: tr.NewID(), Name: tracing.SpanWireRecv, Node: 7, Start: 100, Dur: 50})
	mux := MetricsMux(traced)

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/trace status %d", rec.Code)
	}
	var payload struct {
		Dropped uint64         `json:"dropped"`
		Spans   []tracing.Span `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Spans) != 1 || payload.Spans[0].TraceID != 0xabc {
		t.Fatalf("unexpected spans payload: %+v", payload)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?format=chrome", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/trace?format=chrome status %d", rec.Code)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?trace=zz", nil))
	if rec.Code != 400 {
		t.Fatalf("bad trace filter status %d, want 400", rec.Code)
	}
}

// nopConn swallows frames; the cheapest possible wire for the outbox
// benchmark.
type nopConn struct{}

func (nopConn) Send(protocol.Message) error     { return nil }
func (nopConn) Recv() (protocol.Message, error) { return nil, transport.ErrClosed }
func (nopConn) Close() error                    { return nil }
func (nopConn) RemoteAddr() string              { return "nop://peer" }

// BenchmarkOutboxUntraced pins the untraced enqueue+drain path: one bulk
// frame through enqueue(msg, tickPush, nil) and one writeLoop drain — the same
// takeBatch/recycle pair, minus the goroutine handoff so the measurement is
// deterministic — tracing compiled in but off. scripts/check.sh gates this
// at zero allocations: the proof that adding the tracing hooks did not
// touch the hot path's allocation behaviour.
func BenchmarkOutboxUntraced(b *testing.B) {
	manifest, err := piece.SyntheticManifest(4, 64)
	if err != nil {
		b.Fatal(err)
	}
	n, err := New(Config{Algorithm: algo.Altruism, Store: piece.NewStore(manifest), Transport: transport.NewMem()})
	if err != nil {
		b.Fatal(err)
	}
	r := newRemote(n, 1, nopConn{}, "", 0, n.gainLen.Load())
	var msg protocol.Message = protocol.Piece{Index: 1, RepaysKeyID: protocol.NoRepay, Data: make([]byte, 64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.enqueue(msg, tickPush, nil) {
			b.Fatal("enqueue refused")
		}
		batch, traced, nData, ok := r.takeBatch()
		if !ok || len(traced) > 0 {
			b.Fatalf("drain %d: ok = %v with %d traced frames, want an untraced batch", i, ok, len(traced))
		}
		for _, m := range batch {
			if err := r.conn.Send(m); err != nil {
				b.Fatal(err)
			}
		}
		r.recycle(batch, traced, nData)
	}
}
