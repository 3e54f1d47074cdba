package node

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/attest"
	"repro/internal/piece"
	"repro/internal/protocol"
	"repro/internal/tchain"
	"repro/internal/transport"
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
func counter(n *Node, name string) int64 { return n.Metrics().Counters[name] }

// sealTo has n push piece idx sealed to r at its latest tick and returns the
// seal's KeyID.
func sealTo(t *testing.T, n *Node, r *remote, idx int) uint64 {
	t.Helper()
	data, err := n.cfg.Store.GetRef(idx)
	if err != nil {
		t.Fatal(err)
	}
	if !n.sendSealed(r, idx, data, n.now, nil) {
		t.Fatalf("seal of piece %d to peer %d refused", idx, r.id)
	}
	r.outMu.Lock()
	defer r.outMu.Unlock()
	return r.outbox[len(r.outbox)-1].(protocol.SealedPiece).KeyID
}

// TestGraceSweep pins the wiring of the endgame key release — the rule
// itself is tchain's TestSweepGrace: the upload tick hands the escrow the
// node's clock and its neighbor set, and a released key leaves as a Key
// frame on its receiver's outbox, counted. Three seals: to a receiver that
// has reciprocated before, one that never has, and one that has but is no
// longer in n.links. The node never ticks, so every seal is stamped at
// n.now = 0; the instants are handed to sweepGrace — no sleeping.
func TestGraceSweep(t *testing.T) {
	manifest, content := clusterFixture(t)
	store, err := piece.NewSeedStore(manifest, content)
	if err != nil {
		t.Fatal(err)
	}
	n := fixtureNode(t, Config{Algorithm: algo.TChain, Store: store})
	const trustedID, strangerID, departedID = 1, 2, 3
	trusted, _ := fixtureRemote(n, trustedID, false)
	stranger, _ := fixtureRemote(n, strangerID, false)
	departed, _ := fixtureRemote(n, departedID, false)
	link(t, n, trusted, stranger)
	for _, r := range []*remote{trusted, departed} {
		n.escrow.Confirm(r.id, sealTo(t, n, r, 0)) // r has reciprocated once
	}

	trustedKey := sealTo(t, n, trusted, 1)
	strangerKey := sealTo(t, n, stranger, 2)
	departedKey := sealTo(t, n, departed, 3)
	due := n.now + int64(reciprocationGrace)

	n.sweepGrace(due - 1)
	if n.escrow.Pending() != 3 || len(keysQueued(trusted))+len(keysQueued(stranger))+len(keysQueued(departed)) != 0 {
		t.Fatalf("a sweep before any seal was due moved something: %d keys escrowed of 3", n.escrow.Pending())
	}

	n.sweepGrace(due)
	if got := keysQueued(trusted); len(got) != 1 || got[0] != trustedKey {
		t.Errorf("trusted receiver was queued keys %v, want [%d]", got, trustedKey)
	}
	if _, held := n.escrow.Piece(trustedKey); held || n.escrow.Pending() != 2 {
		t.Errorf("released key still in the escrow (%v), or %d pending, want 2", held, n.escrow.Pending())
	}
	if _, held := n.escrow.Piece(strangerKey); !held || len(keysQueued(stranger)) != 0 {
		t.Error("a receiver that never reciprocated was released a key, or lost its entry")
	}
	if _, held := n.escrow.Piece(departedKey); !held || len(keysQueued(departed)) != 0 {
		t.Error("a departed receiver was released a key: unlink, not the sweep, settles what it owes")
	}
	if got := counter(n, "node_tchain_grace_releases_total"); got != 1 {
		t.Errorf("node_tchain_grace_releases_total = %d, want 1", got)
	}
}

// rawLink dials addr as peer id holding nothing and completes the handshake;
// the test sends on the returned connection.
func rawLink(t *testing.T, tr transport.Transport, addr string, id int32) transport.Conn {
	t.Helper()
	conn, _ := rawPeer(t, tr, addr,
		protocol.Hello{PeerID: id, NumPieces: testPieces},
		protocol.Bitfield{NumPieces: testPieces, Bits: make([]byte, (testPieces+7)/8)})
	return conn
}

func send(t *testing.T, conn transport.Conn, m protocol.Message) {
	t.Helper()
	if err := conn.Send(m); err != nil {
		t.Fatal(err)
	}
}

// rawSeal seals piece idx as origin would under keyID, returning the frame
// and the Key frame that opens it.
func rawSeal(t *testing.T, origin int32, keyID uint64, idx int) (protocol.SealedPiece, protocol.Key) {
	t.Helper()
	escrow := tchain.NewEscrow()
	sealed, err := escrow.Seal(piece.SyntheticPiece(idx, testPieceSize))
	if err != nil {
		t.Fatal(err)
	}
	key, err := escrow.Release(sealed.KeyID)
	if err != nil {
		t.Fatal(err)
	}
	return protocol.SealedPiece{Index: int32(idx), KeyID: keyID, Nonce: sealed.Nonce, Ciphertext: sealed.Ciphertext, OriginID: origin},
		protocol.Key{KeyID: keyID, Index: int32(idx), Key: key}
}

// startTChainLeecher starts an empty-handed T-Chain node on a fresh mem
// transport, for raw peers to seal to.
func startTChainLeecher(t *testing.T) (*Node, transport.Transport) {
	t.Helper()
	manifest, _ := clusterFixture(t)
	tr := transport.NewMem()
	n, err := New(Config{
		ID: 0, Algorithm: algo.TChain, Store: piece.NewStore(manifest), Transport: tr,
		DecisionInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Stop() })
	return n, tr
}

// TestParkedSealsDoNotCollideAcrossOrigins: every escrow numbers its keys
// from 0, so two origins each sealing a different piece under KeyID 0 is the
// common case, not a coincidence. Both seals must stay parked side by side,
// and each origin's key must open its own: parked by KeyID alone, the second
// seal overwrote the first, the first key then opened the wrong ciphertext,
// failed the hash and threw both away.
func TestParkedSealsDoNotCollideAcrossOrigins(t *testing.T) {
	n, tr := startTChainLeecher(t)
	links := map[int32]transport.Conn{1: rawLink(t, tr, n.Addr(), 1), 2: rawLink(t, tr, n.Addr(), 2)}
	keys := map[int32]protocol.Key{}
	for origin, conn := range links {
		var seal protocol.SealedPiece
		seal, keys[origin] = rawSeal(t, origin, 0, int(origin))
		send(t, conn, seal)
	}
	waitFor(t, "both origins' seals to be parked", func() bool { return n.Stats().SealedPending == 2 })
	for origin, conn := range links {
		send(t, conn, keys[origin])
	}
	waitFor(t, "both pieces to verify into the store", func() bool {
		return n.cfg.Store.Has(1) && n.cfg.Store.Has(2)
	})
	if st := n.Stats(); st.SealedPending != 0 || st.CreditedBytes != 2*testPieceSize {
		t.Errorf("after both keys: %d seals parked, %g bytes credited; want 0 and %d", st.SealedPending, st.CreditedBytes, 2*testPieceSize)
	}
}

// TestKeyOpensOnlyItsSendersSeal: a KeyID is a small integer any neighbor can
// guess. A Key from peer 2 naming the seal peer 1 parked here neither opens
// nor removes it — and does not cost peer 2 its link, since an honest late
// Key for a seal plaintext has superseded looks the same. Peer 1's own key
// then opens the seal as if nothing had happened.
func TestKeyOpensOnlyItsSendersSeal(t *testing.T) {
	n, tr := startTChainLeecher(t)
	origin, guesser := rawLink(t, tr, n.Addr(), 1), rawLink(t, tr, n.Addr(), 2)
	seal, key := rawSeal(t, 1, 7, 3)
	send(t, origin, seal)
	waitFor(t, "the seal to be parked", func() bool { return n.Stats().SealedPending == 1 })

	before := n.Stats().FramesReceived
	send(t, guesser, protocol.Key{KeyID: 7, Index: 3})
	waitFor(t, "the guessed Key to be dispatched", func() bool { return n.Stats().FramesReceived > before })
	if st := n.Stats(); st.SealedPending != 1 || st.Neighbors != 2 || n.cfg.Store.Has(3) {
		t.Fatalf("after another peer's Key: %d seals parked, %d neighbors, piece held %v; want 1, 2, false",
			st.SealedPending, st.Neighbors, n.cfg.Store.Has(3))
	}

	send(t, origin, key)
	waitFor(t, "the origin's own key to open its seal", func() bool { return n.cfg.Store.Has(3) })
	if got := n.Stats().Neighbors; got != 2 {
		t.Errorf("%d neighbors at the end, want both links still up", got)
	}
}

// TestMootSealsAreDropped: a parked seal goes as soon as it can open nothing
// new. Two origins seal piece 3 and origin 1's Key delivers it: origin 2's
// seal is dropped in the same step, not opened and decrypted later only for
// the store to find the piece held. And a seal goes with its origin's link,
// since that origin's side of the unlink revokes its key.
func TestMootSealsAreDropped(t *testing.T) {
	n, tr := startTChainLeecher(t)
	first, second := rawLink(t, tr, n.Addr(), 1), rawLink(t, tr, n.Addr(), 2)
	seal, key := rawSeal(t, 1, 0, 3)
	send(t, first, seal)
	seal, _ = rawSeal(t, 2, 0, 3)
	send(t, second, seal)
	waitFor(t, "both origins' seals of piece 3 to be parked", func() bool { return n.Stats().SealedPending == 2 })
	send(t, first, key)
	waitFor(t, "origin 2's seal to be dropped once origin 1's key delivers the piece", func() bool {
		return n.Stats().SealedPending == 0
	})
	if !n.cfg.Store.Has(3) {
		t.Fatal("piece 3 was not delivered")
	}

	seal, _ = rawSeal(t, 1, 1, 4)
	send(t, first, seal)
	waitFor(t, "origin 1's seal of piece 4 to be parked", func() bool { return n.Stats().SealedPending == 1 })
	first.Close()
	waitFor(t, "the unlinked origin's seal to be dropped", func() bool { return n.Stats().SealedPending == 0 })
}

// TestKeysOpenBackToBack: every key a link delivers is opened into that
// link's one scratch buffer, so two opened back to back must still leave
// both pieces intact in the store — Store.Put keeps a copy, not the scratch.
func TestKeysOpenBackToBack(t *testing.T) {
	manifest, _ := clusterFixture(t)
	n := fixtureNode(t, Config{Algorithm: algo.TChain, Store: piece.NewStore(manifest)})
	origin, _ := fixtureRemote(n, 1, false)
	link(t, n, origin)
	pieces := []int{4, 9}
	var keys []protocol.Key
	for keyID, idx := range pieces {
		seal, key := rawSeal(t, 1, uint64(keyID), idx)
		n.dispatch(origin, seal)
		keys = append(keys, key)
	}
	for _, key := range keys {
		n.dispatch(origin, key)
	}
	for _, idx := range pieces {
		if got, err := n.cfg.Store.GetRef(idx); err != nil || !bytes.Equal(got, piece.SyntheticPiece(idx, testPieceSize)) {
			t.Errorf("piece %d after both keys: err %v, intact %v", idx, err, bytes.Equal(got, piece.SyntheticPiece(idx, testPieceSize)))
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
	link(t, n, origin, liar)
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
// refuse through dispatch — or, for a frame with no link, the accept path's
// transient receipt (a connection opening with the receipt) — on an origin holding one key in escrow: node 0 sealed
// a piece to forwarder 1; witness 2 and bystander 3 are neighbors too. Each
// row must leave the key in escrow and count one rejection. Then the honest
// link receipt releases the key, and a replay of it is refused.
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
	})
	links := make(map[int]*remote)
	for id := forwarderID; id <= bystanderID; id++ {
		links[id], _ = fixtureRemote(n, id, false)
		link(t, n, links[id])
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
		via  int // the link the frame arrives on; -1 = the first frame of an accepted connection
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
		// A genuine receipt for a one-byte forward: no reciprocation at all.
		{"truncated-forward", witness.AttestLink(originID, forwarderID, idx, hash(idx), 1), witnessID},
		// What an unsigned witness sends, and all an unsigned origin asks for:
		// to a signing origin it is a claim anyone can type.
		{"unsigned-claim", attest.Claim(forwarderID, witnessID, idx, testPieceSize), witnessID},
		{"unsigned-claim-over-a-transient-session", attest.Claim(forwarderID, witnessID, idx, testPieceSize), -1},
	}
	const rejectedSeries = `node_attest_receipts_total{result="rejected"}`
	deliver := func(att attest.Attestation, via int) {
		frame := protocol.AttestedReceipt{KeyID: keyID, Att: att}
		if via < 0 {
			n.handleConn(&firstFrameConn{first: frame}, 1)
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
			if _, held := n.escrow.Piece(keyID); !held || n.escrow.Pending() != 1 {
				t.Errorf("key still held: %v, keys escrowed: %d; want true and 1", held, n.escrow.Pending())
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
	if n.escrow.Pending() != 0 {
		t.Errorf("after release: %d keys escrowed; want none", n.escrow.Pending())
	}
	if got := counter(n, `node_attest_receipts_total{result="ok",scheme="link"}`); got != 1 {
		t.Errorf("link-keyed receipts verified = %d, want 1", got)
	}
	t.Run("replay-after-release", func(t *testing.T) {
		links[forwarderID].outbox = nil
		refused(t, honest, witnessID)
	})
	// Nielson et al.'s minimum-reciprocation client reciprocates one seal in
	// four. Each reciprocation — a witness's receipt, or a direct repayment —
	// names its seal, and buys that key and no other.
	t.Run("one-in-four-reciprocator", func(t *testing.T) {
		var owed []uint64
		for i := 6; i < 14; i++ {
			owed = append(owed, sealTo(t, n, links[forwarderID], i))
		}
		links[forwarderID].outbox = nil
		receipt := witness.AttestLink(originID, forwarderID, 9, hash(9), testPieceSize)
		if n.dispatch(links[witnessID], protocol.AttestedReceipt{KeyID: owed[3], Att: receipt}) {
			t.Fatal("an honest receipt cost the witness its link")
		}
		repayment := protocol.Piece{Index: 1, RepaysKeyID: owed[7], Data: piece.SyntheticPiece(1, testPieceSize)}
		if n.dispatch(links[forwarderID], repayment) {
			t.Fatal("a repayment cost the forwarder its link")
		}
		if got := keysQueued(links[forwarderID]); !slices.Equal(got, []uint64{owed[3], owed[7]}) || n.escrow.Pending() != 6 {
			t.Errorf("two reciprocations for eight seals queued keys %v with %d escrowed, want [%d %d] and 6",
				got, n.escrow.Pending(), owed[3], owed[7])
		}
	})
}

// TestTransientReceiptLinger: a witness holds a transient receipt
// connection open for the origin to hang up, and one whose origin never does
// is closed by the first tick transientLinger past the tick it was sent
// after — or, stopped sooner, by Stop.
func TestTransientReceiptLinger(t *testing.T) {
	// send has a never-ticked witness send a receipt to an origin that reads
	// it and never hangs up, and returns the witness and the origin's end.
	send := func(t *testing.T) (*Node, transport.Conn) {
		manifest, _ := clusterFixture(t)
		n := fixtureNode(t, Config{ID: 2, Algorithm: algo.TChain, Store: piece.NewStore(manifest)})
		l, err := n.cfg.Transport.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		n.sendTransientReceipt(l.Addr(), protocol.AttestedReceipt{KeyID: 1})
		conn, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		for _, frame := range []string{"receipt", "Bye"} {
			if _, err := conn.Recv(); err != nil {
				t.Fatalf("the origin read no %s: %v", frame, err)
			}
		}
		return n, conn
	}
	// lingering reports whether the witness still holds its end, registered
	// for a tick to close.
	lingering := func(n *Node, conn transport.Conn) bool {
		n.mu.Lock()
		registered := len(n.conns) == 1
		n.mu.Unlock()
		return registered && conn.Send(protocol.Bye{}) == nil
	}
	// hungUp waits for the witness's goroutines to end and reports whether
	// the origin then reads the hang-up.
	hungUp := func(n *Node, conn transport.Conn) bool {
		ended := make(chan struct{})
		go func() { n.wg.Wait(); close(ended) }()
		select {
		case <-ended:
		case <-time.After(5 * time.Second):
			return false
		}
		_, err := conn.Recv()
		return err != nil
	}

	t.Run("tick", func(t *testing.T) {
		n, conn := send(t)
		n.tick(int64(transientLinger) - 1)
		if !lingering(n, conn) {
			t.Fatal("the witness let go of the conn before transientLinger")
		}
		n.tick(int64(transientLinger))
		if !hungUp(n, conn) {
			t.Error("the witness still holds the conn transientLinger on")
		}
	})
	t.Run("stop", func(t *testing.T) {
		n, conn := send(t)
		if err := n.Stop(); err != nil {
			t.Fatal(err)
		}
		if !hungUp(n, conn) {
			t.Error("the witness still holds the conn after Stop")
		}
	})
}

// firstFrameConn is an accepted connection whose dialer opens with one frame
// and hangs up.
type firstFrameConn struct {
	nopConn
	first protocol.Message
}

func (c *firstFrameConn) Recv() (protocol.Message, error) {
	if m := c.first; m != nil {
		c.first = nil
		return m, nil
	}
	return nil, transport.ErrClosed
}

// TestUnsignedWitnessReceipt: without identities there is one receipt frame
// too — the witness sends an AttestedReceipt carrying its bare claim, and an
// unsigned origin takes its word (the paper's trust model) and releases the
// forwarder's key, unless the claim is for less than the whole piece.
func TestUnsignedWitnessReceipt(t *testing.T) {
	const originID, forwarderID, witnessID = 0, 1, 2
	manifest, content := clusterFixture(t)
	store, err := piece.NewSeedStore(manifest, content)
	if err != nil {
		t.Fatal(err)
	}
	origin := fixtureNode(t, Config{ID: originID, Algorithm: algo.TChain, Store: store})
	toForwarder, _ := fixtureRemote(origin, forwarderID, false)
	fromWitness, _ := fixtureRemote(origin, witnessID, false)
	link(t, origin, toForwarder, fromWitness)
	keyID := sealTo(t, origin, toForwarder, 5)

	witness := fixtureNode(t, Config{ID: witnessID, Algorithm: algo.TChain, Store: piece.NewStore(manifest)})
	toOrigin, _ := fixtureRemote(witness, originID, false)
	fromForwarder, _ := fixtureRemote(witness, forwarderID, false)
	link(t, witness, toOrigin, fromForwarder)
	forwarded := protocol.SealedPiece{
		Index: 5, KeyID: keyID, Ciphertext: make([]byte, testPieceSize),
		OriginID: originID, Forwarded: true, ForwarderID: forwarderID,
	}
	if witness.dispatch(fromForwarder, forwarded) {
		t.Fatal("the witness dropped an honest forward")
	}
	if len(toOrigin.outbox) != 1 {
		t.Fatalf("the witness queued the origin %d frames, want its receipt", len(toOrigin.outbox))
	}
	receipt, ok := toOrigin.outbox[0].(protocol.AttestedReceipt)
	if want := attest.Claim(forwarderID, witnessID, 5, testPieceSize); !ok || receipt.KeyID != keyID || receipt.Att != want {
		t.Fatalf("the witness sent %#v, want an AttestedReceipt for key %d carrying %+v", toOrigin.outbox[0], keyID, want)
	}

	// Taking the witness's word is not taking it for less than the piece.
	truncated := receipt
	truncated.Att.Bytes = 1
	origin.dispatch(fromWitness, truncated)
	if got := keysQueued(toForwarder); len(got) != 0 || origin.escrow.Pending() != 1 {
		t.Fatalf("a claim for one byte of the piece queued the forwarder keys %v", got)
	}
	if origin.dispatch(fromWitness, receipt) {
		t.Error("the origin dropped the witness's link")
	}
	if got := keysQueued(toForwarder); len(got) != 1 || got[0] != keyID || origin.escrow.Pending() != 0 {
		t.Errorf("the forwarder was queued keys %v with %d left in escrow, want [%d] and none", got, origin.escrow.Pending(), keyID)
	}
}
