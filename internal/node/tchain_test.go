package node

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/attest"
	"repro/internal/piece"
	"repro/internal/protocol"
)

// runTChainCluster moves the fixture file through a 4-node T-Chain cluster,
// stops it and lets go of it, having set a finalizer on every node's store
// that counts into freed. The store stands in for its node: Node and
// remote.n form a cycle, and a finalizer on a cycle member blocks the
// cycle's collection.
func runTChainCluster(t *testing.T, freed *atomic.Int32) (nodes int) {
	manifest, content := clusterFixture(t)
	c, err := StartCluster(manifest, content,
		WithAlgorithm(algo.TChain),
		WithLeechers(3),
		WithDecisionInterval(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := c.WaitAllCompleteContext(ctx); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		runtime.SetFinalizer(n.StoreHandle(), func(*piece.Store) { freed.Add(1) })
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	return len(c.Nodes)
}

// TestStoppedTChainNodeIsCollectable: once Stop returns, nothing the node
// armed may keep it — and the store it holds — reachable. A per-seal
// time.AfterFunc did, for reciprocationGrace after the last seal: at the
// benchmark's shape, three to four finished 128 MiB clusters stayed live
// behind the running one.
func TestStoppedTChainNodeIsCollectable(t *testing.T) {
	var freed atomic.Int32
	nodes := runTChainCluster(t, &freed)
	deadline := time.Now().Add(500 * time.Millisecond)
	for int(freed.Load()) < nodes && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(5 * time.Millisecond) // finalizers run on their own goroutine
	}
	if got := int(freed.Load()); got != nodes {
		t.Fatalf("%d of %d stores collected 500ms after Stop", got, nodes)
	}
}

// keysQueued lists the KeyIDs of the Key frames waiting in r's outbox.
func keysQueued(r *remote) []uint64 {
	r.outMu.Lock()
	defer r.outMu.Unlock()
	var ids []uint64
	for _, m := range r.outbox {
		if k, ok := m.(protocol.Key); ok {
			ids = append(ids, k.KeyID)
		}
	}
	return ids
}

// counter reads one of n's counters by series name.
func counter(n *Node, name string) int64 { return n.Metrics().Snapshot().Counters[name] }

// sealTo has n push piece idx sealed to r and returns the seal's KeyID.
func sealTo(t *testing.T, n *Node, r *remote, idx int) uint64 {
	t.Helper()
	data, err := n.cfg.Store.GetRef(idx)
	if err != nil {
		t.Fatal(err)
	}
	if !n.sendSealed(r, idx, data, nil) {
		t.Fatalf("seal of piece %d to peer %d refused", idx, r.id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.graceLog[len(n.graceLog)-1].keyID
}

// TestGraceSweep pins the endgame key release on passed-in time: three
// seals queued, to a receiver that has reciprocated before, one that never
// has, and one that has but left. Nothing is released before the first
// stamp is due; once all are, exactly the trusted, still-linked receiver is
// sent its key; and a long push/sweep stream keeps the log compact. The
// instants are sinceStartNs values handed to sweepGrace — no sleeping.
func TestGraceSweep(t *testing.T) {
	manifest, content := clusterFixture(t)
	store, err := piece.NewSeedStore(manifest, content)
	if err != nil {
		t.Fatal(err)
	}
	n := fixtureNode(t, Config{Algorithm: algo.TChain, Store: store})
	n.start = time.Now() // sendSealed stamps on the sinceStartNs clock
	const trustedID, strangerID, departedID = 1, 2, 3
	trusted, _ := fixtureRemote(n, trustedID, false)
	stranger, _ := fixtureRemote(n, strangerID, false)
	departed, _ := fixtureRemote(n, departedID, false)
	n.peers[trustedID], n.peers[strangerID] = trusted, stranger
	n.trusted[trustedID], n.trusted[departedID] = true, true

	trustedKey := sealTo(t, n, trusted, 1)
	strangerKey := sealTo(t, n, stranger, 2)
	departedKey := sealTo(t, n, departed, 3)
	firstDue, lastDue := n.graceLog[0].due, n.graceLog[2].due

	n.sweepGrace(firstDue - 1)
	if n.graceHead != 0 || n.recip.Outstanding() != 3 || n.escrow.Pending() != 3 ||
		len(keysQueued(trusted))+len(keysQueued(stranger))+len(keysQueued(departed)) != 0 {
		t.Fatalf("a sweep one nanosecond early moved something: head %d, %d demands, %d keys escrowed",
			n.graceHead, n.recip.Outstanding(), n.escrow.Pending())
	}

	n.sweepGrace(lastDue)
	if got := keysQueued(trusted); len(got) != 1 || got[0] != trustedKey {
		t.Errorf("trusted receiver was queued keys %v, want [%d]", got, trustedKey)
	}
	if _, held := n.recip.Piece(trustedKey); held || n.escrow.Pending() != 2 {
		t.Errorf("released key left its demand (%v) or escrow entry (%d pending, want 2) behind", held, n.escrow.Pending())
	}
	if _, held := n.recip.Piece(strangerKey); !held || len(keysQueued(stranger)) != 0 {
		t.Error("a receiver that never reciprocated was released a key, or lost its demand")
	}
	if _, held := n.recip.Piece(departedKey); !held || len(keysQueued(departed)) != 0 {
		t.Error("a departed receiver was released a key: unlink, not the sweep, settles its demands")
	}
	if live := len(n.graceLog) - n.graceHead; live != 0 {
		t.Errorf("%d stamps still queued after a sweep past the last one", live)
	}
	if got := counter(n, "node_tchain_grace_releases_total"); got != 1 {
		t.Errorf("node_tchain_grace_releases_total = %d, want 1", got)
	}

	// A steady stream — one seal per step, 64 steps to a grace period —
	// keeps about 64 stamps live; the spent prefix must not pile up behind
	// them, nor the backing array outgrow twice what the log may hold.
	const perGrace = 64
	step := int64(reciprocationGrace) / perGrace
	for i, now := 0, lastDue; i < 10_000; i, now = i+1, now+step {
		n.mu.Lock()
		n.graceLog = append(n.graceLog, graceStamp{due: now + int64(reciprocationGrace), keyID: uint64(1000 + i), receiver: strangerID})
		n.mu.Unlock()
		n.sweepGrace(now)
		live := len(n.graceLog) - n.graceHead
		if live > perGrace+1 || len(n.graceLog) > 2*live || cap(n.graceLog) > 4*(perGrace+1) {
			t.Fatalf("step %d: %d live stamps in a log of %d (cap %d)", i, live, len(n.graceLog), cap(n.graceLog))
		}
	}
}

// TestSealedPieceSpeaksOnlyForItsLink: the witness attests ForwarderID and
// handleKey credits OriginID, so both must be the peer the link
// authenticated. Peer 2 claiming peer 3 forwarded peer 1's seal, or that
// peer 3 is the origin of the seal it sends, loses its link before anything
// is signed, queued or parked (TestHostileFramesDropLinkNotNode has the
// same two frames against a running node).
func TestSealedPieceSpeaksOnlyForItsLink(t *testing.T) {
	manifest, _ := clusterFixture(t)
	n := fixtureNode(t, Config{Algorithm: algo.TChain, Store: piece.NewStore(manifest), Identity: attest.NewKeyFromSeed(0, 1)})
	origin, _ := fixtureRemote(n, 1, false)
	liar, _ := fixtureRemote(n, 2, false)
	n.peers[1], n.peers[2] = origin, liar
	ciphertext := make([]byte, testPieceSize)
	for name, frame := range map[string]protocol.SealedPiece{
		"forwarder": {Index: 3, KeyID: 11, Ciphertext: ciphertext, OriginID: 1, Forwarded: true, ForwarderID: 3},
		"origin":    {Index: 3, KeyID: 11, Ciphertext: ciphertext, OriginID: 3},
	} {
		if !n.dispatch(liar, frame) {
			t.Errorf("%s: the link survived a seal speaking for peer 3", name)
		}
	}
	if origin.queued() != 0 || liar.queued() != 0 || n.Stats().SealedPending != 0 ||
		counter(n, "node_attest_signed_total") != 0 {
		t.Errorf("a refused seal left a trace: %d frames to the origin, %d to the sender, %d parked, %d receipts signed",
			origin.queued(), liar.queued(), n.Stats().SealedPending, counter(n, "node_attest_signed_total"))
	}
}

// TestWitnessReceiptAdversaries drives every witness receipt an origin must
// refuse through dispatch — or, for a frame with no link, the served
// transient session — on an origin holding one outstanding demand: node 0
// sealed a piece to forwarder 1; witness 2 and bystander 3 are neighbors
// too. Each row must leave the key in escrow and the demand outstanding and
// count one rejection. Then the honest link receipt releases the key, and a
// replay of it is refused.
func TestWitnessReceiptAdversaries(t *testing.T) {
	const originID, forwarderID, witnessID, bystanderID = 0, 1, 2, 3
	const idx = 5
	manifest, content := clusterFixture(t)
	store, err := piece.NewSeedStore(manifest, content)
	if err != nil {
		t.Fatal(err)
	}
	dir := attest.NewDirectory()
	keys := make(map[int32]*attest.Key)
	for id := int32(originID); id <= bystanderID; id++ {
		keys[id] = attest.NewKeyFromSeed(id, 1)
		dir.Register(id, keys[id].Identity())
	}
	n := fixtureNode(t, Config{
		ID: originID, Algorithm: algo.TChain, Store: store,
		Identity: keys[originID], Directory: dir, AttestScheme: attest.SchemeSession,
		Discover: &DiscoverConfig{}, // a served transient session is a row
	})
	n.start = time.Now()
	links := make(map[int]*remote)
	for id := forwarderID; id <= bystanderID; id++ {
		links[id], _ = fixtureRemote(n, id, false)
		n.peers[id] = links[id]
	}
	keyID := sealTo(t, n, links[forwarderID], idx)

	hash := func(i int32) [32]byte { return [32]byte(manifest.Hashes[i]) }
	forwarder, witness := keys[forwarderID], keys[witnessID]
	honest := witness.AttestLink(originID, forwarderID, idx, hash(idx), testPieceSize)
	minted := forwarder.AttestLink(originID, forwarderID, idx, hash(idx), testPieceSize)
	minted.Receiver = witnessID
	perPiece := witness.Attest(attest.SchemeSession, forwarderID, idx, hash(idx), testPieceSize)
	if err := n.verifier.Check(perPiece); err != nil {
		t.Fatalf("the per-piece receipt the forwarder holds is not even genuine: %v", err)
	}
	rows := []struct {
		name string
		att  attest.Attestation
		via  int // the link the frame arrives on; -1 = a served transient session
	}{
		{"forwarder-minted-own-link", minted, forwarderID},
		{"forwarder-minted-on-witness-link", minted, witnessID},
		{"addressed-to-another-origin", witness.AttestLink(bystanderID, forwarderID, idx, hash(idx), testPieceSize), witnessID},
		{"over-a-third-peers-link", honest, bystanderID},
		{"over-the-forwarders-link", honest, forwarderID},
		{"over-a-transient-session", honest, -1},
		{"per-piece-session-receipt-rewrapped", perPiece, witnessID},
		{"per-piece-receipt-relabelled-link", func() attest.Attestation { a := perPiece; a.Scheme = attest.SchemeLink; return a }(), witnessID},
		{"wrong-piece", witness.AttestLink(originID, forwarderID, idx+1, hash(idx+1), testPieceSize), witnessID},
	}
	const rejectedSeries = `node_attest_receipts_total{result="rejected"}`
	deliver := func(att attest.Attestation, via int) {
		frame := protocol.AttestedReceipt{KeyID: keyID, Att: att}
		if via < 0 {
			n.serveDiscovery(nopConn{}, frame)
			return
		}
		if n.dispatch(links[via], frame) {
			t.Error("a refused receipt cost the link; it is evidence, not a hostile frame")
		}
	}
	refused := func(t *testing.T, att attest.Attestation, via int) {
		t.Helper()
		before := counter(n, rejectedSeries)
		deliver(att, via)
		if got := counter(n, rejectedSeries) - before; got != 1 {
			t.Errorf("%s moved by %d, want 1", rejectedSeries, got)
		}
		if len(keysQueued(links[forwarderID])) != 0 {
			t.Error("the forwarder was sent a key")
		}
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			refused(t, row.att, row.via)
			if _, held := n.recip.Piece(keyID); !held || n.escrow.Pending() != 1 {
				t.Errorf("demand outstanding: %v, keys escrowed: %d; want true and 1", held, n.escrow.Pending())
			}
		})
	}

	// A link receipt convinces its addressee on its link and nobody else
	// anywhere: it is no portable proof, so the ledger never credits it.
	if err := n.ledger.Credit(honest); !errors.Is(err, attest.ErrLinkScoped) {
		t.Errorf("Ledger.Credit of a link receipt: %v, want ErrLinkScoped", err)
	}
	deliver(honest, witnessID)
	if got := keysQueued(links[forwarderID]); len(got) != 1 || got[0] != keyID {
		t.Fatalf("the honest link receipt queued the forwarder keys %v, want [%d]", got, keyID)
	}
	if n.escrow.Pending() != 0 || n.recip.Outstanding() != 0 {
		t.Errorf("after release: %d keys escrowed, %d demands; want none", n.escrow.Pending(), n.recip.Outstanding())
	}
	if got := counter(n, `node_attest_receipts_total{result="ok",scheme="link"}`); got != 1 {
		t.Errorf("link-keyed receipts verified = %d, want 1", got)
	}
	t.Run("replay-after-release", func(t *testing.T) {
		links[forwarderID].outbox = nil
		refused(t, honest, witnessID)
	})
	n.wg.Wait() // the transient session's watchdog
}
