package node

import (
	"context"
	"math/rand"
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

const (
	testPieces    = 16
	testPieceSize = 512
)

// waitComplete drives the context-based wait API under a test deadline,
// returning whatever WaitCompleteContext reports.
func waitComplete(t *testing.T, n *Node, timeout time.Duration) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return n.WaitCompleteContext(ctx)
}

// cluster spins up one seed node plus n leechers on the given transport,
// full-mesh connected, and returns them started.
type cluster struct {
	t        *testing.T
	manifest *piece.Manifest
	content  []byte
	nodes    []*Node
}

func newCluster(t *testing.T, tr transport.Transport, listenAddr func(i int) string,
	a algo.Algorithm, leechers int, freeRiders map[int]bool) *cluster {
	t.Helper()
	manifest, err := piece.SyntheticManifest(testPieces, testPieceSize)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 0, manifest.FileSize)
	for i := 0; i < testPieces; i++ {
		content = append(content, piece.SyntheticPiece(i, testPieceSize)...)
	}
	ledger := reputation.NewLedger(attest.AcceptAll{})

	c := &cluster{t: t, manifest: manifest, content: content}
	var addrs []string
	for i := 0; i <= leechers; i++ {
		var store *piece.Store
		if i == 0 {
			seedStore, err := piece.NewSeedStore(manifest, content)
			if err != nil {
				t.Fatal(err)
			}
			store = seedStore
		} else {
			store = piece.NewStore(manifest)
		}
		cfg := Config{
			ID:               i,
			Algorithm:        a,
			Store:            store,
			Transport:        tr,
			ListenAddr:       listenAddr(i),
			Bootstrap:        append([]string(nil), addrs...),
			DecisionInterval: 2 * time.Millisecond,
			FreeRide:         freeRiders[i],
			Ledger:           ledger,
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, n)
		addrs = append(addrs, n.Addr())
	}
	t.Cleanup(c.stopAll)
	return c
}

func (c *cluster) stopAll() {
	for _, n := range c.nodes {
		n.Stop()
	}
}

func memAddrs(i int) string { return "" }

func TestNodeValidation(t *testing.T) {
	manifest, _ := piece.SyntheticManifest(4, 64)
	store := piece.NewStore(manifest)
	tr := transport.NewMem()
	cases := []Config{
		{Transport: tr}, // no store
		{Store: store},  // no transport
		{Store: store, Transport: tr, UploadRate: -1},
		{Store: store, Transport: tr, ID: -1}, // incentive.NoPeer
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestDistributeAllAlgorithms: a seed plus four compliant leechers finish
// the file under every mechanism that can initiate uploads. (Pure
// reciprocity stalls by design — covered separately.)
func TestDistributeAllAlgorithms(t *testing.T) {
	for _, a := range []algo.Algorithm{algo.Altruism, algo.BitTorrent, algo.FairTorrent, algo.Reputation, algo.TChain} {
		t.Run(a.String(), func(t *testing.T) {
			t.Parallel()
			c := newCluster(t, transport.NewMem(), memAddrs, a, 4, nil)
			for i, n := range c.nodes[1:] {
				if err := waitComplete(t, n, 20*time.Second); err != nil {
					t.Fatalf("leecher %d incomplete (%v): %+v", i+1, err, n.Stats())
				}
			}
			// Assembled content matches the original bytes.
			got, err := c.nodes[1].cfg.Store.Assemble()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(c.content) {
				t.Fatalf("assembled %d bytes, want %d", len(got), len(c.content))
			}
			for i := range got {
				if got[i] != c.content[i] {
					t.Fatalf("content differs at byte %d", i)
				}
			}
		})
	}
}

// TestReciprocityStallsLive: with pure reciprocity nobody can initiate, so
// leechers stay empty (Lemma 2's deadlock, on the real stack).
func TestReciprocityStallsLive(t *testing.T) {
	c := newCluster(t, transport.NewMem(), memAddrs, algo.Reciprocity, 2, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if c.nodes[1].WaitCompleteContext(ctx) == nil {
		t.Fatal("reciprocity leecher completed — someone initiated an upload")
	}
	for _, n := range c.nodes[1:] {
		if s := n.Stats(); s.Pieces != 0 {
			t.Errorf("leecher %d acquired %d pieces under pure reciprocity", s.ID, s.Pieces)
		}
	}
}

// TestTChainFreeRiderStarves: under T-Chain, a free-riding node receives
// sealed pieces it can never decrypt, while compliant nodes finish.
func TestTChainFreeRiderStarves(t *testing.T) {
	c := newCluster(t, transport.NewMem(), memAddrs, algo.TChain, 3, map[int]bool{3: true})
	for _, i := range []int{1, 2} {
		if err := waitComplete(t, c.nodes[i], 20*time.Second); err != nil {
			t.Fatalf("compliant leecher %d incomplete (%v): %+v", i, err, c.nodes[i].Stats())
		}
	}
	time.Sleep(100 * time.Millisecond)
	fr := c.nodes[3].Stats()
	if fr.Pieces != 0 {
		t.Errorf("free-rider decrypted %d pieces under T-Chain", fr.Pieces)
	}
	if fr.UploadedBytes != 0 {
		t.Errorf("free-rider uploaded %g bytes", fr.UploadedBytes)
	}
}

// TestAltruismFreeRiderFeasts: the same free-rider completes the whole file
// under altruism — the other end of Table III.
func TestAltruismFreeRiderFeasts(t *testing.T) {
	c := newCluster(t, transport.NewMem(), memAddrs, algo.Altruism, 3, map[int]bool{3: true})
	if err := waitComplete(t, c.nodes[3], 20*time.Second); err != nil {
		t.Fatalf("free-rider incomplete under altruism (%v): %+v", err, c.nodes[3].Stats())
	}
	if got := c.nodes[3].Stats().UploadedBytes; got != 0 {
		t.Errorf("free-rider uploaded %g bytes", got)
	}
}

// TestTCPCluster runs a small swarm over real TCP on localhost.
func TestTCPCluster(t *testing.T) {
	c := newCluster(t, transport.NewTCP(), func(int) string { return "127.0.0.1:0" },
		algo.TChain, 3, nil)
	// Generous deadline: under -race with other packages' tests hogging the
	// machine, a healthy TCP swarm can take far longer than its usual ~2 s.
	for i := 1; i <= 3; i++ {
		if err := waitComplete(t, c.nodes[i], 90*time.Second); err != nil {
			t.Fatalf("TCP leecher %d incomplete (%v): %+v", i, err, c.nodes[i].Stats())
		}
	}
}

// TestReputationContributorPreferred: with the reputation mechanism, the
// ledger accumulates real upload credit for contributors — every byte of
// content a leecher ends up with is credited exactly once, to the node that
// delivered it first, and nobody holds more credit than it uploaded. (Who
// ends up richest is not pinned: the mechanism feeds the best-reputed
// wanting neighbor, so one early relayer can out-earn the seed, and the
// seed used to come out on top only because its duplicate pushes were
// credited too.)
func TestReputationContributorPreferred(t *testing.T) {
	const leechers = 3
	c := newCluster(t, transport.NewMem(), memAddrs, algo.Reputation, leechers, nil)
	for i := 1; i <= leechers; i++ {
		if err := waitComplete(t, c.nodes[i], 20*time.Second); err != nil {
			t.Fatalf("leecher %d incomplete: %v", i, err)
		}
	}
	ledger := c.nodes[0].ledger
	if ledger.Score(0) <= 0 {
		t.Fatal("seed has no reputation despite uploading")
	}
	var total float64
	for i, n := range c.nodes {
		score := ledger.Score(i)
		total += score
		if uploaded := n.Stats().UploadedBytes; score > uploaded {
			t.Errorf("node %d holds %g bytes of credit for %g bytes uploaded", i, score, uploaded)
		}
	}
	if want := float64(leechers * testPieces * testPieceSize); total != want {
		t.Errorf("ledger holds %g bytes of credit, want %g: each leecher's file, once", total, want)
	}
}

// TestNodeStopIdempotent: Stop twice, and stats stay accessible.
func TestNodeStopIdempotent(t *testing.T) {
	c := newCluster(t, transport.NewMem(), memAddrs, algo.Altruism, 1, nil)
	c.nodes[0].Stop()
	c.nodes[0].Stop()
	_ = c.nodes[0].Stats()
}

// TestCompleteWaitsForEveryCredit: two handler goroutines deliver a node's
// last two pieces, and the one that fills the store is not the last to
// credit its receipt. The node reads complete only once both receipts are in
// the ledger, so a caller woken by WaitCompleteContext sees every credit.
func TestCompleteWaitsForEveryCredit(t *testing.T) {
	manifest, content := clusterFixture(t)
	store := piece.NewStore(manifest)
	for i := 0; i < testPieces-2; i++ {
		if err := store.Put(i, content[i*testPieceSize:(i+1)*testPieceSize]); err != nil {
			t.Fatal(err)
		}
	}
	n := fixtureNode(t, Config{Algorithm: algo.Altruism, Store: store})
	r, _ := fixtureRemote(n, 1, false)
	link(t, n, r)
	credits := func() (total uint64) {
		for _, s := range n.ledger.Snapshot() {
			total += s.Valid
		}
		return total
	}
	complete := func() bool {
		select {
		case <-n.completeCh:
			return true
		default:
			return false
		}
	}
	// The first goroutine has verified and booked its piece, not yet
	// credited it; the second delivers the last piece from end to end.
	early, last := testPieces-2, testPieces-1
	if err := store.Put(early, content[early*testPieceSize:last*testPieceSize]); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	n.noteDeliveryLocked(r.id, early, testPieceSize, tracing.Context{})
	n.mu.Unlock()
	n.handlePiece(r, protocol.Piece{Index: int32(last), RepaysKeyID: protocol.NoRepay, Data: content[last*testPieceSize:]})
	if !store.Complete() || complete() {
		t.Fatalf("store complete %v, node complete %v with one receipt uncredited; want true, false", store.Complete(), complete())
	}
	n.receiptFor(r, r.id, int32(early), testPieceSize, nil)
	if !complete() || credits() != 2 {
		t.Errorf("after the last credit: node complete %v, %d receipts credited; want true, 2", complete(), credits())
	}
}

// TestUploadRateThrottle drives a throttled seed's token bucket with tick
// instants: it starts one piece full, so the first tick pushes one piece,
// then refills at UploadRate, and an idle stretch refills at most four
// pieces' worth.
func TestUploadRateThrottle(t *testing.T) {
	manifest, content := clusterFixture(t)
	store, err := piece.NewSeedStore(manifest, content)
	if err != nil {
		t.Fatal(err)
	}
	seed := fixtureNode(t, Config{Algorithm: algo.Altruism, Store: store, UploadRate: 4 * testPieceSize}) // four pieces a second
	r, _ := fixtureRemote(seed, 1, false)
	link(t, seed, r)
	pushed := func() int { return int(seed.Stats().UploadedBytes) / testPieceSize }

	// 1.5 s of 125 ms ticks, each refilling exactly half a piece.
	const step = int64(125 * time.Millisecond)
	for k := int64(1); k <= 12; k++ {
		seed.tick(k * step)
		if got, want := pushed(), 1+int(k)/2; got != want {
			t.Fatalf("after the tick at %v: %d pieces pushed, want %d", time.Duration(k*step), got, want)
		}
	}
	// Two idle seconds refill eight pieces' worth; the bucket keeps four.
	seed.tick(12*step + int64(2*time.Second))
	if got := pushed(); got != 7+4 {
		t.Errorf("after two idle seconds: %d pieces pushed, want %d", got, 7+4)
	}
}

// TestUploadWindow drives an unthrottled node's tick against one silent
// remote: each tick pushes until the link's window — pieces pushed within
// resendCooldown that the peer has not announced — is full at maxInFlight.
// A Have frees one slot, the cooldown frees the rest, and a T-Chain
// repayment, a control frame, is never refused. The node
// is a T-Chain leecher holding every piece but the last, so its pushes are
// seals and the seal it is sent for the last piece is one it can repay.
func TestUploadWindow(t *testing.T) {
	manifest, content := clusterFixture(t)
	store := piece.NewStore(manifest)
	for i := 0; i < testPieces-1; i++ {
		if err := store.Put(i, content[i*testPieceSize:(i+1)*testPieceSize]); err != nil {
			t.Fatal(err)
		}
	}
	n := fixtureNode(t, Config{Algorithm: algo.TChain, Store: store})
	r, conn := fixtureRemote(n, 1, false)
	link(t, n, r)
	writer := make(chan struct{})
	go func() { defer close(writer); r.writeLoop() }()
	pushed := func() int { return int(n.Stats().UploadedBytes) / testPieceSize }
	inFlight := func() int {
		n.mu.Lock()
		defer n.mu.Unlock()
		return r.inFlight(n.now)
	}
	const ms = int64(time.Millisecond)

	n.tick(1 * ms)
	if got := pushed(); got != maxInFlight {
		t.Fatalf("first tick pushed %d pieces, want %d", got, maxInFlight)
	}
	n.tick(2 * ms)
	if got := pushed(); got != maxInFlight {
		t.Fatalf("second tick pushed %d more pieces into a full window, want none", got-maxInFlight)
	}

	n.mu.Lock()
	announced := r.cooling.Indices()[0]
	n.mu.Unlock()
	n.dispatch(r, protocol.Have{Index: int32(announced)})
	if got := inFlight(); got != maxInFlight-1 {
		t.Fatalf("a Have left %d pieces in flight, want %d", got, maxInFlight-1)
	}
	n.tick(3 * ms)
	if got := pushed(); got != maxInFlight+1 {
		t.Fatalf("the tick after a Have pushed %d pieces, want 1", got-maxInFlight)
	}

	// The first tick's pushes cool down; the one after the Have does not.
	n.tick(1*ms + int64(resendCooldown))
	if got := pushed(); got != 2*maxInFlight {
		t.Fatalf("the tick past the cooldown pushed %d pieces, want %d", got-maxInFlight-1, maxInFlight-1)
	}
	if got := inFlight(); got != maxInFlight {
		t.Fatalf("%d pieces in flight after the cooldown tick, want %d", got, maxInFlight)
	}

	// The window is full; a seal of the one piece we lack is still repaid.
	const keyID = 7
	seal, _ := rawSeal(t, int32(r.id), keyID, testPieces-1)
	n.dispatch(r, seal)
	if got := pushed(); got != 2*maxInFlight+1 {
		t.Fatalf("the repayment pushed %d pieces, want 1", got-2*maxInFlight)
	}
	if got := inFlight(); got != maxInFlight+1 {
		t.Errorf("%d pieces in flight after the repayment, want %d", got, maxInFlight+1)
	}
	r.closeOutbox()
	<-writer
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if last, ok := conn.sent[len(conn.sent)-1].(protocol.Piece); !ok || last.RepaysKeyID != keyID {
		t.Errorf("last frame on the wire is %+v, want a Piece repaying key %d", conn.sent[len(conn.sent)-1], keyID)
	}
}

// TestUploadSkipsFullWindows: one link's full window does not end the tick.
// A seeder with two silent links fills both windows in one tick, and after a
// Have from one link the next tick pushes exactly one piece, to that link. A
// tick that stopped at its first pick of a full link would stop short of
// both counts whenever the draw lands on the full link first.
func TestUploadSkipsFullWindows(t *testing.T) {
	manifest, content := clusterFixture(t)
	store, err := piece.NewSeedStore(manifest, content)
	if err != nil {
		t.Fatal(err)
	}
	n := fixtureNode(t, Config{Algorithm: algo.Altruism, Store: store})
	a, _ := fixtureRemote(n, 1, false)
	b, _ := fixtureRemote(n, 2, false)
	link(t, n, a, b)
	pushed := func() int { return int(n.Stats().UploadedBytes) / testPieceSize }
	queued := func(r *remote) int {
		r.outMu.Lock()
		defer r.outMu.Unlock()
		return r.outData
	}
	const ms = int64(time.Millisecond)

	n.tick(1 * ms)
	if got := pushed(); got != 2*maxInFlight {
		t.Fatalf("first tick pushed %d pieces over two empty windows, want %d", got, 2*maxInFlight)
	}
	if qa, qb := queued(a), queued(b); qa != maxInFlight || qb != maxInFlight {
		t.Fatalf("first tick queued %d and %d pieces, want %d on each link", qa, qb, maxInFlight)
	}

	n.mu.Lock()
	announced := a.cooling.Indices()[0]
	n.mu.Unlock()
	n.dispatch(a, protocol.Have{Index: int32(announced)})
	n.tick(2 * ms)
	if got := pushed(); got != 2*maxInFlight+1 {
		t.Fatalf("the tick after a Have pushed %d pieces, want 1", got-2*maxInFlight)
	}
	if qa, qb := queued(a), queued(b); qa != maxInFlight+1 || qb != maxInFlight {
		t.Errorf("the tick after a Have left %d and %d pieces queued, want %d and %d", qa, qb, maxInFlight+1, maxInFlight)
	}
}

// TestInFlightCountMatchesOracle: a link's window count, kept in O(1) where
// its cooling set or its announced set changes, equals a recount of the
// cooling pieces the peer has not announced after every event that moves
// either set: pushes of fresh and already-cooling pieces, repayment picks,
// Have, HaveBatch and Bitfield frames (duplicates and pieces that never
// cooled included), and ticks that carry pushes past resendCooldown.
func TestInFlightCountMatchesOracle(t *testing.T) {
	const pieces, links, steps = 300, 12, 400
	manifest, err := piece.SyntheticManifest(pieces, 1)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 0, pieces)
	for i := 0; i < pieces; i++ {
		content = append(content, piece.SyntheticPiece(i, 1)...)
	}
	store, err := piece.NewSeedStore(manifest, content)
	if err != nil {
		t.Fatal(err)
	}
	n := fixtureNode(t, Config{Algorithm: algo.Altruism, Store: store})
	rng := rand.New(rand.NewSource(1))
	var now int64
	for link := 0; link < links; link++ {
		r, _ := fixtureRemote(n, link+1, false)
		for step := 0; step < steps; step++ {
			var event string
			switch rng.Intn(7) {
			case 0:
				event = "push"
				n.mu.Lock()
				r.cool(rng.Intn(pieces), now)
				n.mu.Unlock()
			case 1:
				event = "re-push of a cooling piece"
				n.mu.Lock()
				if cooling := r.cooling.Indices(); len(cooling) > 0 {
					r.cool(cooling[rng.Intn(len(cooling))], now)
				}
				n.mu.Unlock()
			case 2:
				event = "repayment"
				n.mu.Lock()
				n.pickRepaymentLocked(r, now)
				n.mu.Unlock()
			case 3:
				event = "Have"
				n.dispatch(r, protocol.Have{Index: int32(rng.Intn(pieces))})
			case 4:
				event = "HaveBatch"
				batch := make([]int32, 1+rng.Intn(6))
				for i := range batch {
					batch[i] = int32(rng.Intn(pieces))
				}
				batch = append(batch, batch[0]) // a duplicate within the frame
				n.dispatch(r, protocol.HaveBatch{Indices: batch})
			case 5:
				event = "Bitfield"
				bits := make([]byte, (pieces+7)/8)
				for i := 0; i < pieces; i++ {
					if rng.Intn(60) == 0 {
						bits[i/8] |= 1 << (uint(i) % 8)
					}
				}
				n.dispatch(r, protocol.Bitfield{NumPieces: pieces, Bits: bits})
			case 6:
				event = "tick"
				now += rng.Int63n(int64(resendCooldown))
			}
			n.mu.Lock()
			got := r.inFlight(now)
			want := r.have.CountMissingFrom(r.cooling)
			n.mu.Unlock()
			if got != want {
				t.Fatalf("link %d step %d (%s): window count %d, recount %d", link, step, event, got, want)
			}
		}
	}
}

// TestSwarmSurvivesMessageLoss: with 5% of non-handshake messages dropped,
// the recovery paths (resend cooldown, seal re-issue, trusted key-release
// fallback) still complete the download.
func TestSwarmSurvivesMessageLoss(t *testing.T) {
	for _, a := range []algo.Algorithm{algo.Altruism, algo.TChain} {
		t.Run(a.String(), func(t *testing.T) {
			tr, err := transport.NewFlaky(transport.NewMem(),
				transport.WithDropProb(0.05), transport.WithDropSeed(77))
			if err != nil {
				t.Fatal(err)
			}
			c := newCluster(t, tr, memAddrs, a, 3, nil)
			for i := 1; i <= 3; i++ {
				if err := waitComplete(t, c.nodes[i], 45*time.Second); err != nil {
					t.Fatalf("leecher %d incomplete under loss (%v): %+v", i, err, c.nodes[i].Stats())
				}
			}
		})
	}
}

// TestSeedModeServesPlaintextUnderTChain: an origin-server node sends
// plaintext even under T-Chain, so a two-party swarm (where reciprocation
// toward a complete peer is infeasible) still works.
func TestSeedModeServesPlaintextUnderTChain(t *testing.T) {
	manifest, _ := piece.SyntheticManifest(testPieces, testPieceSize)
	content := make([]byte, 0, manifest.FileSize)
	for i := 0; i < testPieces; i++ {
		content = append(content, piece.SyntheticPiece(i, testPieceSize)...)
	}
	seedStore, _ := piece.NewSeedStore(manifest, content)
	tr := transport.NewMem()
	seed, err := New(Config{
		ID: 0, Algorithm: algo.TChain, Store: seedStore, Transport: tr,
		DecisionInterval: 2 * time.Millisecond, SeedMode: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Start(); err != nil {
		t.Fatal(err)
	}
	defer seed.Stop()

	leech, err := New(Config{
		ID: 1, Algorithm: algo.TChain, Store: piece.NewStore(manifest),
		Transport: tr, Bootstrap: []string{seed.Addr()},
		DecisionInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := leech.Start(); err != nil {
		t.Fatal(err)
	}
	defer leech.Stop()

	if err := waitComplete(t, leech, 20*time.Second); err != nil {
		t.Fatalf("two-party T-Chain swarm with SeedMode did not complete (%v): %+v", err, leech.Stats())
	}
}
