package node

import (
	"context"
	"math/rand"
	"slices"
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

// askFor has peer r ask n for pieces, as its next announcement would.
func askFor(t *testing.T, n *Node, r *remote, pieces ...int32) {
	t.Helper()
	if n.dispatch(r, protocol.HaveBatch{Requests: pieces}) {
		t.Fatalf("requests %v cost the link", pieces)
	}
}

// TestUploadRateThrottle drives a throttled seed's token bucket with tick
// instants: it starts one piece full, so the first tick pushes one piece,
// then refills at UploadRate, and an idle stretch refills at most four
// pieces' worth. The peer keeps maxInFlight requests outstanding throughout,
// so the bucket, not the requests, paces the pushes.
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
	next := int32(0)
	tick := func(now int64) {
		for r.wants.n < maxInFlight && next < testPieces {
			askFor(t, seed, r, next)
			next++
		}
		seed.tick(now)
	}

	// 1.5 s of 125 ms ticks, each refilling exactly half a piece.
	const step = int64(125 * time.Millisecond)
	for k := int64(1); k <= 12; k++ {
		tick(k * step)
		if got, want := pushed(), 1+int(k)/2; got != want {
			t.Fatalf("after the tick at %v: %d pieces pushed, want %d", time.Duration(k*step), got, want)
		}
	}
	// Two idle seconds refill eight pieces' worth; the bucket keeps four.
	tick(12*step + int64(2*time.Second))
	if got := pushed(); got != 7+4 {
		t.Errorf("after two idle seconds: %d pieces pushed, want %d", got, 7+4)
	}
}

// TestUploadWindow drives an unthrottled node's tick against one remote
// that asks for pieces: each tick serves what the remote asked for, oldest
// first, and nothing else, so the remote's requests are the window — at most
// maxInFlight outstanding; past that the oldest give way, as the requester
// returns its oldest to the pool first. A request for a piece the node lacks,
// the remote holds or already asked for is ignored, and a T-Chain repayment
// serves the origin's oldest request. The node is a T-Chain leecher holding every piece but the
// last, so its pushes are seals and the seal it is sent for the last piece
// is one it can repay.
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
	pushed := func() int { return int(n.Stats().UploadedBytes) / testPieceSize }
	wants := func() []int32 {
		n.mu.Lock()
		defer n.mu.Unlock()
		var idx []int32
		for _, a := range r.wants.q[:r.wants.n] {
			idx = append(idx, a.idx)
		}
		return idx
	}
	const ms = int64(time.Millisecond)

	n.tick(1 * ms)
	if got := pushed(); got != 0 {
		t.Fatalf("a tick with nothing asked pushed %d pieces", got)
	}
	askFor(t, n, r, 0, 1, 2, 3, 4, 5, 6, 7)
	n.tick(2 * ms)
	if got := pushed(); got != maxInFlight {
		t.Fatalf("the tick after %d requests pushed %d pieces", maxInFlight, got)
	}
	n.tick(3 * ms)
	if got := pushed(); got != maxInFlight {
		t.Fatalf("a tick with every request served pushed %d more", got-maxInFlight)
	}

	n.dispatch(r, protocol.Have{Index: 14})
	askFor(t, n, r, 8, 9, 10, 15, 14, 8) // 15 we lack, 14 it holds, 8 twice
	if got := wants(); !slices.Equal(got, []int32{8, 9, 10}) {
		t.Fatalf("requests booked %v, want [8 9 10]", got)
	}
	askFor(t, n, r, 11, 12, 13, 0, 1) // the queue is full
	askFor(t, n, r, 2, 3, 4)          // past the window the oldest three give way
	if got := wants(); !slices.Equal(got, []int32{11, 12, 13, 0, 1, 2, 3, 4}) {
		t.Fatalf("past the window the queue is %v, want [11 12 13 0 1 2 3 4]", got)
	}
	if n.dispatch(r, protocol.HaveBatch{Requests: make([]int32, maxInFlight+1)}) != true {
		t.Fatal("a batch of more than maxInFlight requests kept its link")
	}

	// The remote's oldest request is repaid in plaintext for its seal of the
	// one piece we lack.
	writer := make(chan struct{})
	go func() { defer close(writer); r.writeLoop() }()
	const keyID = 7
	seal, _ := rawSeal(t, int32(r.id), keyID, testPieces-1)
	n.dispatch(r, seal)
	if got := pushed(); got != maxInFlight+1 {
		t.Fatalf("the repayment pushed %d pieces, want 1", got-maxInFlight)
	}
	if got := wants(); len(got) != maxInFlight-1 || got[0] != 12 {
		t.Errorf("after the repayment the queue is %v, want request 11 served", got)
	}
	r.closeOutbox()
	<-writer
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if last, ok := conn.sent[len(conn.sent)-1].(protocol.Piece); !ok || last.RepaysKeyID != keyID || last.Index != 11 {
		t.Errorf("last frame on the wire is %+v, want piece 11 repaying key %d", conn.sent[len(conn.sent)-1], keyID)
	}
}

// TestUploadSkipsFullWindows: a link with nothing asked is left out of the
// view, and does not end the tick. A seeder with three links, two of which
// ask for maxInFlight pieces each, serves all of them in one tick, and after
// one more request from one link the next tick pushes exactly one piece, to
// that link. A tick that stopped at its first pick of a link with no request
// would stop short of both counts whenever the draw lands on that link.
func TestUploadSkipsFullWindows(t *testing.T) {
	manifest, content := clusterFixture(t)
	store, err := piece.NewSeedStore(manifest, content)
	if err != nil {
		t.Fatal(err)
	}
	n := fixtureNode(t, Config{Algorithm: algo.Altruism, Store: store})
	a, _ := fixtureRemote(n, 1, false)
	b, _ := fixtureRemote(n, 2, false)
	idle, _ := fixtureRemote(n, 3, false)
	link(t, n, a, b, idle)
	pushed := func() int { return int(n.Stats().UploadedBytes) / testPieceSize }
	queued := func(r *remote) int {
		r.outMu.Lock()
		defer r.outMu.Unlock()
		return r.outData
	}
	const ms = int64(time.Millisecond)

	askFor(t, n, a, 0, 1, 2, 3, 4, 5, 6, 7)
	askFor(t, n, b, 8, 9, 10, 11, 12, 13, 14, 15)
	n.tick(1 * ms)
	if got := pushed(); got != 2*maxInFlight {
		t.Fatalf("first tick pushed %d pieces over two full request queues, want %d", got, 2*maxInFlight)
	}
	if qa, qb, qi := queued(a), queued(b), queued(idle); qa != maxInFlight || qb != maxInFlight || qi != 0 {
		t.Fatalf("first tick queued %d, %d and %d pieces, want %d, %d and 0", qa, qb, qi, maxInFlight, maxInFlight)
	}

	askFor(t, n, a, 15)
	n.tick(2 * ms)
	if got := pushed(); got != 2*maxInFlight+1 {
		t.Fatalf("the tick after one request pushed %d pieces, want 1", got-2*maxInFlight)
	}
	if qa, qb := queued(a), queued(b); qa != maxInFlight+1 || qb != maxInFlight {
		t.Errorf("the tick after one request left %d and %d pieces queued, want %d and %d", qa, qb, maxInFlight+1, maxInFlight)
	}
}

// TestInFlightCountMatchesOracle holds the requester's state to its oracle
// after every event that moves it — request passes, deliveries over the
// link a piece was asked of and over another, Have, HaveBatch and Bitfield
// frames, ticks past resendCooldown, a writer's drain, and links going down
// and coming up: no link has more than maxInFlight requests outstanding or
// unsent, every pending piece is pending on exactly one link and is not
// held, and every queued request is pending.
func TestInFlightCountMatchesOracle(t *testing.T) {
	const pieces, links, steps = 300, 12, 2000
	manifest, err := piece.SyntheticManifest(pieces, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := fixtureNode(t, Config{Algorithm: algo.Altruism, Store: piece.NewStore(manifest)})
	rng := rand.New(rand.NewSource(1))
	for id := 1; id <= links; id++ {
		r, _ := fixtureRemote(n, id, false)
		link(t, n, r)
	}
	var now int64
	check := func(step int, event string) {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.pending == nil {
			return
		}
		owner := make(map[int]int)
		for _, r := range n.links {
			r.outMu.Lock()
			unsent := len(r.requests)
			r.outMu.Unlock()
			if r.asked.n > maxInFlight || unsent > maxInFlight {
				t.Fatalf("step %d (%s): link %d has %d requests outstanding, %d unsent", step, event, r.id, r.asked.n, unsent)
			}
			for _, a := range r.asked.q[:r.asked.n] {
				idx := int(a.idx)
				if other, dup := owner[idx]; dup {
					t.Fatalf("step %d (%s): piece %d pending on links %d and %d", step, event, idx, other, r.id)
				}
				owner[idx] = r.id
				if !n.pending.Has(idx) {
					t.Fatalf("step %d (%s): piece %d queued on link %d but not pending", step, event, idx, r.id)
				}
			}
		}
		for _, idx := range n.pending.Indices() {
			if _, ok := owner[idx]; !ok || n.myBits.Has(idx) {
				t.Fatalf("step %d (%s): piece %d pending on link %d (found %v), held %v", step, event, idx, owner[idx], ok, n.myBits.Has(idx))
			}
		}
	}
	deliver := func(r *remote, idx int) {
		n.handlePiece(r, protocol.Piece{Index: int32(idx), RepaysKeyID: protocol.NoRepay, Data: piece.SyntheticPiece(idx, 1)})
	}
	for step := 0; step < steps; step++ {
		n.mu.Lock()
		r := n.links[rng.Intn(len(n.links))]
		n.mu.Unlock()
		var event string
		switch rng.Intn(9) {
		case 0:
			event = "Bitfield"
			bits := make([]byte, (pieces+7)/8)
			for i := 0; i < pieces; i++ {
				if rng.Intn(8) == 0 {
					bits[i/8] |= 1 << (uint(i) % 8)
				}
			}
			n.dispatch(r, protocol.Bitfield{NumPieces: pieces, Bits: bits})
		case 1:
			event = "Have"
			n.dispatch(r, protocol.Have{Index: int32(rng.Intn(pieces))})
		case 2:
			event = "HaveBatch"
			batch := make([]int32, 1+rng.Intn(6))
			for i := range batch {
				batch[i] = int32(rng.Intn(pieces))
			}
			n.dispatch(r, protocol.HaveBatch{Indices: append(batch, batch[0])})
		case 3, 4:
			event = "request pass"
			n.request(now)
		case 5:
			event = "delivery over the link asked"
			n.mu.Lock()
			idx := -1
			if r.asked.n > 0 {
				idx = int(r.asked.q[rng.Intn(r.asked.n)].idx)
			}
			n.mu.Unlock()
			if idx >= 0 {
				deliver(r, idx)
			}
		case 6:
			event = "delivery over another link"
			deliver(r, rng.Intn(pieces))
		case 7:
			event = "tick"
			now += rng.Int63n(int64(resendCooldown))
			r.outMu.Lock()
			r.requests = nil // a drain
			r.outMu.Unlock()
		case 8:
			event = "link down and up"
			n.mu.Lock()
			n.unlinkLocked(r)
			n.mu.Unlock()
			again, _ := fixtureRemote(n, r.id, false)
			link(t, n, again)
		}
		check(step, event)
	}
	if n.myBits.Count() == 0 || n.pending == nil {
		t.Errorf("the run gained %d pieces and built no requester state (%v): it tested nothing", n.myBits.Count(), n.pending == nil)
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
