package node

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/algo"
	"repro/internal/incentive"
	"repro/internal/piece"
	"repro/internal/protocol"
)

// TestViewDecisionsFollowSeed: the strategy view hands out neighbours in
// ascending ID order, so two nodes over the same links, with rngs seeded
// alike, make the same decisions. n.peers is a map, and a view that ranged
// over it would hand each decision's draw a differently ordered list.
func TestViewDecisionsFollowSeed(t *testing.T) {
	const peers, pieces, decisions = 40, 256, 200
	mine := piece.NewBitfield(pieces)
	for i := 0; i < pieces; i += 2 {
		mine.Set(i)
	}
	for _, a := range []algo.Algorithm{algo.Altruism, algo.BitTorrent} {
		var nodes [2]*Node
		var strategies [2]incentive.Strategy
		for i := range nodes {
			n := &Node{peers: make(map[int]*remote), rng: rand.New(rand.NewSource(7)), myBits: mine}
			// Link in opposite orders: the map's contents are the same.
			for k := 0; k < peers; k++ {
				id := k
				if i == 1 {
					id = peers - 1 - k
				}
				// A third of the peers hold everything we hold; the rest
				// hold pieces we lack and one we have.
				have := piece.NewBitfield(pieces)
				if id%3 == 0 {
					have = mine.Clone()
				} else {
					have.Set(2*id + 1)
					have.Set(2 * id)
				}
				n.peers[id] = &remote{n: n, id: id, have: have}
			}
			s, err := incentive.New(a, incentive.Params{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			nodes[i], strategies[i] = n, s
		}
		var picks [2][]incentive.PeerID
		for d := 0; d < decisions; d++ {
			for i, n := range nodes {
				picks[i] = append(picks[i], strategies[i].NextReceiver(n.view()))
			}
		}
		if !slices.Equal(picks[0], picks[1]) {
			t.Errorf("%v: equal seeds picked differently:\n%v\n%v", a, picks[0], picks[1])
		}
		if picked := slices.IndexFunc(picks[0], func(p incentive.PeerID) bool { return p != incentive.NoPeer }); picked < 0 {
			t.Errorf("%v: no decision picked a peer", a)
		}
		if i := slices.IndexFunc(picks[0], func(p incentive.PeerID) bool { return p != incentive.NoPeer && p%3 == 0 }); i >= 0 {
			t.Errorf("%v: decision %d picked peer %d, which holds everything we hold", a, i, picks[0][i])
		}
		if ids := nodes[0].view().Neighbors(); !slices.IsSorted(ids) || len(ids) != peers {
			t.Errorf("Neighbors = %v, want %d ascending IDs", ids, peers)
		}
	}
}

// TestForwardAndExchangeFollowSeed: the T-Chain witness pick and the peer
// exchange sample draw from n.rng over the neighbours in ascending ID order,
// so two nodes over the same links, seeded alike, forward the same seals to
// the same witnesses and send a dialer the same Nodes frame.
func TestForwardAndExchangeFollowSeed(t *testing.T) {
	const peers, seals, sample = 40, 200, 8
	manifest, err := piece.SyntheticManifest(testPieces, testPieceSize)
	if err != nil {
		t.Fatal(err)
	}
	var witnesses [2][]int
	var exchanges [2]protocol.Message
	for i := range witnesses {
		// Same ID, same seed; the node holds nothing, so every seal is
		// forwarded rather than repaid directly.
		n := fixtureNode(t, Config{ID: 100, Algorithm: algo.TChain, Store: piece.NewStore(manifest), MaxNeighbors: sample})
		for k := 0; k < peers; k++ {
			id := k
			if i == 1 {
				id = peers - 1 - k
			}
			r := newRemote(n, id, nopConn{}, "peer", uint64(id+1), 0)
			for idx := 0; idx < testPieces; idx += 1 + id%4 {
				r.have.Set(idx) // uneven holdings: the witness must lack the piece
			}
			n.peers[id] = r
		}
		origin := n.peers[0]
		for s := 0; s < seals; s++ {
			n.reciprocate(origin, protocol.SealedPiece{Index: int32(s % testPieces), OriginID: 0, Ciphertext: []byte{1}})
			witness := -1
			for id, r := range n.peers {
				r.outMu.Lock()
				if len(r.outbox) > 0 {
					witness = id
					r.outbox, r.outData = r.outbox[:0], 0
				}
				r.outMu.Unlock()
			}
			witnesses[i] = append(witnesses[i], witness)
		}
		n.mu.Lock()
		exchanges[i] = n.peerExchangeLocked(newRemote(n, peers, nopConn{}, "dialer", peers+1, 0))
		n.mu.Unlock()
	}
	if !slices.Equal(witnesses[0], witnesses[1]) {
		t.Errorf("equal seeds forwarded to different witnesses:\n%v\n%v", witnesses[0], witnesses[1])
	}
	if slices.Contains(witnesses[0], -1) || slices.Contains(witnesses[0], 0) {
		t.Errorf("a seal went to no witness or back to its origin: %v", witnesses[0])
	}
	nodes, ok := exchanges[0].(protocol.Nodes)
	if !ok || len(nodes.Contacts) != sample {
		t.Fatalf("peer exchange sent %+v, want %d of the %d neighbours", exchanges[0], sample, peers)
	}
	if !reflect.DeepEqual(exchanges[0], exchanges[1]) {
		t.Errorf("equal seeds sent different Nodes frames:\n%+v\n%+v", exchanges[0], exchanges[1])
	}
}
