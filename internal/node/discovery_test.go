package node

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/piece"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// dialsOK asserts the dial budget for every running node: the connections
// it opened and still holds, links and dials in flight alike, are at most
// maxNeighbors.
func dialsOK(t *testing.T, nodes []*Node, maxNeighbors int) {
	t.Helper()
	for _, n := range nodes {
		n.mu.Lock()
		dialed := len(n.dialing)
		n.mu.Unlock()
		if dialed > maxNeighbors {
			t.Errorf("node %d holds %d dialed connections, above MaxNeighbors %d", n.ID(), dialed, maxNeighbors)
		}
	}
}

// dialLog wraps a transport and records every Dial. An address under
// "trap://" connects to a peer that accepts and never says a word.
type dialLog struct {
	transport.Transport
	mu    sync.Mutex
	addrs []string
}

func (d *dialLog) Dial(addr string) (transport.Conn, error) {
	d.mu.Lock()
	d.addrs = append(d.addrs, addr)
	d.mu.Unlock()
	if strings.HasPrefix(addr, "trap://") {
		return &silentConn{closed: make(chan struct{})}, nil
	}
	return d.Transport.Dial(addr)
}

func (d *dialLog) dialed() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.addrs...)
}

// silentConn swallows what it is sent and blocks every Recv until closed.
type silentConn struct {
	once   sync.Once
	closed chan struct{}
}

func (c *silentConn) Send(protocol.Message) error { return nil }
func (c *silentConn) Recv() (protocol.Message, error) {
	<-c.closed
	return nil, transport.ErrClosed
}
func (c *silentConn) Close() error       { c.once.Do(func() { close(c.closed) }); return nil }
func (c *silentConn) RemoteAddr() string { return "trap://silent" }

// TestDiscoverySwarmAllAlgorithms: a tracker-wired partial mesh (every node
// handed the seed and three random earlier nodes) must complete under every
// mechanism that can initiate uploads, exactly like the full mesh does.
// (Pure reciprocity stalls by design — Lemma 2 — on any topology.)
func TestDiscoverySwarmAllAlgorithms(t *testing.T) {
	for _, a := range []algo.Algorithm{algo.Altruism, algo.BitTorrent, algo.FairTorrent, algo.Reputation, algo.TChain} {
		t.Run(a.String(), func(t *testing.T) {
			t.Parallel()
			manifest, content := clusterFixture(t)
			c, err := StartCluster(manifest, content,
				WithAlgorithm(a),
				WithLeechers(12),
				WithMaxNeighbors(4),
				WithDecisionInterval(2*time.Millisecond),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
			defer cancel()
			if err := c.WaitAllCompleteContext(ctx); err != nil {
				t.Fatalf("tracker-wired swarm under %v did not complete: %v", a, err)
			}
			dialsOK(t, c.Nodes, 4)
		})
	}
}

// TestDiscoveryDegreeBounded: in a 40-node tracker-wired swarm every node
// dials at most MaxNeighbors, the mesh stays well short of complete, and the
// download still completes.
func TestDiscoveryDegreeBounded(t *testing.T) {
	manifest, content := clusterFixture(t)
	const leechers = 39
	c, err := StartCluster(manifest, content,
		WithLeechers(leechers),
		WithMaxNeighbors(6),
		WithDecisionInterval(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.WaitAllCompleteContext(ctx); err != nil {
		t.Fatalf("tracker-wired swarm did not complete: %v", err)
	}
	dialsOK(t, c.Nodes, 6)
	ends := 0
	for _, n := range c.Nodes {
		ends += n.Stats().Neighbors
	}
	if full := (leechers + 1) * leechers; ends >= full/2 {
		t.Errorf("%d link ends of a full mesh's %d: the tracker's cap did not keep the mesh partial", ends, full)
	}
}

// TestDiscoveryChurn64: a 64-node swarm on a lossy, laggy transport, with
// 20% of the leechers replaced mid-download (stop 13, join 13). Survivors
// and joiners must all complete, every node must hold at most MaxNeighbors
// dialed connections, and tearing everything down must leak no goroutines.
// Run under -race this is membership's integration gate (scripts/check.sh
// runs it by name).
func TestDiscoveryChurn64(t *testing.T) {
	manifest, content := clusterFixture(t)
	before := runtime.NumGoroutine()

	tr, err := transport.NewFlaky(transport.NewMem(),
		transport.WithDropProb(0.02),
		transport.WithLatency(time.Millisecond, 3*time.Millisecond),
		transport.WithDropSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	const leechers = 63
	c, err := StartCluster(manifest, content,
		WithTransport(tr),
		WithLeechers(leechers),
		WithMaxNeighbors(6),
		WithDecisionInterval(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Let the swarm wire up and start downloading, then churn: every fourth
	// leecher from node 5 on leaves and a fresh one joins in its place.
	time.Sleep(500 * time.Millisecond)
	stopped := make(map[int]bool)
	for i := 5; i <= leechers && len(stopped) < 13; i += 4 {
		if err := c.Nodes[i].Stop(); err != nil {
			t.Fatalf("stopping node %d: %v", i, err)
		}
		stopped[i] = true
	}
	joined := make([]*Node, 0, len(stopped))
	for range stopped {
		n, err := c.Join()
		if err != nil {
			t.Fatalf("join: %v", err)
		}
		joined = append(joined, n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	for i, n := range c.Nodes {
		if i == 0 || stopped[i] {
			continue
		}
		if err := n.WaitCompleteContext(ctx); err != nil {
			st := n.Stats()
			n.mu.Lock()
			known := len(n.contacts)
			n.mu.Unlock()
			t.Fatalf("survivor %d did not complete: %v (pieces %d, neighbors %d, contacts %d)",
				n.ID(), err, st.Pieces, st.Neighbors, known)
		}
	}
	if len(joined) != 13 {
		t.Fatalf("joined %d nodes, want 13", len(joined))
	}

	live := make([]*Node, 0, len(c.Nodes))
	for i, n := range c.Nodes {
		if i != 0 && stopped[i] {
			continue
		}
		live = append(live, n)
	}
	dialsOK(t, live, 6)

	if err := c.Stop(); err != nil {
		t.Fatalf("cluster stop: %v", err)
	}
	// Stop returns after every node's WaitGroup drains, but the flaky
	// transport's per-connection dispatchers exit asynchronously on close —
	// poll briefly before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after Stop; stacks:\n%s", before, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDiscoveryTChainLateJoiner: a node that wires into a T-Chain swarm
// only after everyone else has finished hits the protocol's nastiest
// corner: every neighbor is complete, so sealed pieces arrive that it can
// hardly reciprocate for. The joiner is handed nodes 3–5 and not the
// plaintext-serving seed; it must find the seed, and complete, through the
// contacts those three pass on in their handshakes alone.
func TestDiscoveryTChainLateJoiner(t *testing.T) {
	manifest, content := clusterFixture(t)
	tr := transport.NewMem()
	c, err := StartCluster(manifest, content,
		WithTransport(tr),
		WithAlgorithm(algo.TChain),
		WithLeechers(8),
		WithMaxNeighbors(4),
		WithDecisionInterval(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
	defer cancel()
	if err := c.WaitAllCompleteContext(ctx); err != nil {
		t.Fatalf("base swarm did not complete: %v", err)
	}

	joiner, err := New(Config{
		ID:               100,
		Algorithm:        algo.TChain,
		Store:            piece.NewStore(manifest),
		Transport:        tr,
		Bootstrap:        []string{c.Nodes[3].Addr(), c.Nodes[4].Addr(), c.Nodes[5].Addr()},
		DecisionInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := joiner.Start(); err != nil {
		t.Fatal(err)
	}
	defer joiner.Stop()
	jctx, jcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer jcancel()
	if err := joiner.WaitCompleteContext(jctx); err != nil {
		st := joiner.Stats()
		t.Fatalf("late joiner never completed: %v (pieces %d, neighbors %d, sealed pending %d)",
			err, st.Pieces, st.Neighbors, st.SealedPending)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		joiner.mu.Lock()
		seedLinked := joiner.linkedLocked(0) != nil
		joiner.mu.Unlock()
		if seedLinked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the joiner never linked to the seed it was only told of by peer exchange")
		}
	}
}

// TestPeerExchangeOvertakenHandshake: two joiners dial one seed, and the
// later one's handshake finishes first, so the Nodes frame it is sent cannot
// list the earlier one. When the earlier one links, the later one must be
// told of it and dial it.
func TestPeerExchangeOvertakenHandshake(t *testing.T) {
	manifest, content := clusterFixture(t)
	tr := transport.NewMem()
	seedStore, err := piece.NewSeedStore(manifest, content)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := New(Config{ID: 0, Algorithm: algo.Altruism, Store: seedStore, Transport: tr, DecisionInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Start(); err != nil {
		t.Fatal(err)
	}
	defer seed.Stop()

	// The earlier joiner is a bare connection that holds back its Hello; it
	// listens where it says it does, so a dial to it is observable.
	early, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()
	earlyConn, err := tr.Dial(seed.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer earlyConn.Close()

	later, err := New(Config{ID: 2, Algorithm: algo.Altruism, Store: piece.NewStore(manifest), Transport: tr,
		Bootstrap: []string{seed.Addr()}, DecisionInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := later.Start(); err != nil {
		t.Fatal(err)
	}
	defer later.Stop()
	for deadline := time.Now().Add(10 * time.Second); seed.Stats().Neighbors != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the later joiner never linked to the seed")
		}
	}

	hello := protocol.Hello{PeerID: 1, NumPieces: int32(manifest.NumPieces()), Addr: early.Addr()}
	if earlyConn.Send(hello) != nil || earlyConn.Send(protocol.Bitfield{NumPieces: hello.NumPieces, Bits: make([]byte, (manifest.NumPieces()+7)/8)}) != nil {
		t.Fatal("early joiner's handshake failed")
	}
	go func() { // drain the seed's frames until the link closes
		for {
			if _, err := earlyConn.Recv(); err != nil {
				return
			}
		}
	}()
	accepted := make(chan transport.Conn, 1)
	go func() {
		if c, err := early.Accept(); err == nil {
			accepted <- c
		}
	}()
	select {
	case c := <-accepted:
		c.Close()
	case <-time.After(10 * time.Second):
		t.Fatal("the later joiner never dialed the earlier one: the seed did not tell it of a handshake it overtook")
	}
}

// TestClusterJoin: nodes attached to a running tracker-wired swarm get the
// same kind of bootstrap list, dial no more than it, and complete.
func TestClusterJoin(t *testing.T) {
	manifest, content := clusterFixture(t)
	c, err := StartCluster(manifest, content,
		WithLeechers(8),
		WithMaxNeighbors(4),
		WithDecisionInterval(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	joined := make([]*Node, 0, 4)
	for i := 0; i < 4; i++ {
		n, err := c.Join()
		if err != nil {
			t.Fatal(err)
		}
		joined = append(joined, n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
	defer cancel()
	if err := c.WaitAllCompleteContext(ctx); err != nil {
		t.Fatalf("swarm with joiners did not complete: %v", err)
	}
	for _, n := range joined {
		if !n.Stats().Complete {
			t.Errorf("joiner %d incomplete", n.ID())
		}
	}
	dialsOK(t, c.Nodes, 4)
	// Join after Stop must refuse.
	c.Stop()
	if _, err := c.Join(); err == nil {
		t.Error("Join on a stopped cluster succeeded")
	}
}

// TestFullMeshOpensEachLinkOnce: a default 16-node cluster — the bench's
// swarm shape, below MaxNeighbors — is the full mesh, and peer exchange adds
// no dial to it: exactly one connection per pair, 120, even after the
// nodes have ticked long enough to act on every contact they were passed.
func TestFullMeshOpensEachLinkOnce(t *testing.T) {
	manifest, content := clusterFixture(t)
	tr := &dialLog{Transport: transport.NewMem()}
	const nodes = 16
	c, err := StartCluster(manifest, content,
		WithTransport(tr),
		WithLeechers(nodes-1),
		WithDecisionInterval(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		wired := 0
		for _, n := range c.Nodes {
			if n.Stats().Neighbors == nodes-1 {
				wired++
			}
		}
		if wired == nodes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d nodes linked to every other", wired, nodes)
		}
	}
	time.Sleep(20 * time.Millisecond) // ten ticks
	if got := len(tr.dialed()); got != nodes*(nodes-1)/2 {
		t.Errorf("the cluster opened %d connections, want %d: one per pair", got, nodes*(nodes-1)/2)
	}
}

// BenchmarkJoinConvergence256 is membership at swarm scale: a 256-node
// cluster whose tracker hands each node the seed and seven random earlier
// nodes, timed from start until every node has a link, reported as s/wire,
// and until every leecher completes the download, reported as s/complete.
func BenchmarkJoinConvergence256(b *testing.B) {
	manifest, err := piece.SyntheticManifest(testPieces, testPieceSize)
	if err != nil {
		b.Fatal(err)
	}
	content := make([]byte, 0, manifest.FileSize)
	for i := 0; i < testPieces; i++ {
		content = append(content, piece.SyntheticPiece(i, testPieceSize)...)
	}
	for i := 0; i < b.N; i++ {
		start := time.Now()
		c, err := StartCluster(manifest, content,
			WithLeechers(255),
			WithMaxNeighbors(8),
			WithDecisionInterval(5*time.Millisecond),
		)
		if err != nil {
			b.Fatal(err)
		}
		wireDeadline := time.Now().Add(60 * time.Second)
		for {
			wired := 0
			for _, n := range c.Nodes {
				if n.Stats().Neighbors >= 1 {
					wired++
				}
			}
			if wired == len(c.Nodes) {
				break
			}
			if time.Now().After(wireDeadline) {
				c.Stop()
				b.Fatalf("only %d/%d nodes wired after 60s", wired, len(c.Nodes))
			}
			time.Sleep(10 * time.Millisecond)
		}
		b.ReportMetric(time.Since(start).Seconds(), "s/wire")
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		if err := c.WaitAllCompleteContext(ctx); err != nil {
			cancel()
			c.Stop()
			b.Fatal(err)
		}
		cancel()
		b.ReportMetric(time.Since(start).Seconds(), "s/complete")
		c.Stop()
	}
}
