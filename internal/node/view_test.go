package node

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/algo"
	"repro/internal/incentive"
	"repro/internal/piece"
	"repro/internal/protocol"
)

// decisionFixture is a node linked to 40 peers, entered in ascending or
// descending ID order, with an rng seeded alike either way. It holds every
// other piece of 256; a third of the peers hold everything it holds, the
// rest pieces it lacks and one it has, and every fifth link holds no
// request of it.
func decisionFixture(t testing.TB, descending bool) *Node {
	const peers, pieces = 40, 256
	mine := piece.NewBitfield(pieces)
	for i := 0; i < pieces; i += 2 {
		mine.Set(i)
	}
	n := &Node{rng: rand.New(rand.NewSource(7)), myBits: mine}
	for k := 0; k < peers; k++ {
		id := k
		if descending {
			id = peers - 1 - k
		}
		have := piece.NewBitfield(pieces)
		if id%3 == 0 {
			have = mine.Clone()
		} else {
			have.Set(2*id + 1)
			have.Set(2 * id)
		}
		r := &remote{n: n, id: id, have: have}
		if id%5 != 1 {
			r.wants.n = 1
		}
		link(t, n, r)
	}
	return n
}

// decide runs 200 decisions of a fresh a-strategy through the node view, or
// the upload view when upload is set, feeding it a receipt before every
// third so that T-Chain's obligations and BitTorrent's contributors come
// into play.
func decide(t *testing.T, n *Node, a algo.Algorithm, upload bool) []incentive.PeerID {
	s, err := incentive.New(a, incentive.Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var v incentive.NodeView = n.view()
	if upload {
		v = uploadView{nodeView{n}}
	}
	var picks []incentive.PeerID
	for d := 0; d < 200; d++ {
		if d%3 == 0 {
			s.OnReceived(v, incentive.PeerID((7*d)%40), 1024)
		}
		picks = append(picks, s.NextReceiver(v))
	}
	return picks
}

// TestViewDecisionsFollowSeed: the strategy view hands out neighbours in
// ascending ID order, so two nodes over the same links, linked in opposite
// orders, with rngs seeded alike, make the same decisions.
func TestViewDecisionsFollowSeed(t *testing.T) {
	for _, a := range []algo.Algorithm{algo.Altruism, algo.BitTorrent} {
		var picks [2][]incentive.PeerID
		for i := range picks {
			picks[i] = decide(t, decisionFixture(t, i == 1), a, false)
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
		if ids := decisionFixture(t, true).view().Neighbors(); !slices.IsSorted(ids) || len(ids) != 40 {
			t.Errorf("Neighbors = %v, want 40 ascending IDs", ids)
		}
	}
}

// forwardFixture is a T-Chain node holding nothing, linked to 40 peers with
// uneven holdings, entered in ascending or descending ID order; every seal
// it is sent is forwarded rather than repaid.
func forwardFixture(t *testing.T, descending bool) *Node {
	const peers, sample = 40, 8
	manifest, err := piece.SyntheticManifest(testPieces, testPieceSize)
	if err != nil {
		t.Fatal(err)
	}
	n := fixtureNode(t, Config{ID: 100, Algorithm: algo.TChain, Store: piece.NewStore(manifest), MaxNeighbors: sample})
	for k := 0; k < peers; k++ {
		id := k
		if descending {
			id = peers - 1 - k
		}
		r := newRemote(n, id, nopConn{}, "peer", uint64(id+1), 0)
		for idx := 0; idx < testPieces; idx += 1 + id%4 {
			r.have.Set(idx) // uneven holdings: the witness must lack the piece
		}
		link(t, n, r)
	}
	return n
}

// forward sends n 200 of peer 0's seals and returns the witness each was
// forwarded to (-1 for none), then the Nodes frame n sends a new dialer.
func forward(n *Node) ([]int, protocol.Message) {
	origin := n.linkedLocked(0)
	var witnesses []int
	for s := 0; s < 200; s++ {
		n.reciprocate(origin, protocol.SealedPiece{Index: int32(s % testPieces), OriginID: 0, Ciphertext: []byte{1}})
		witness := -1
		for _, r := range n.links {
			r.outMu.Lock()
			if len(r.outbox) > 0 {
				witness = r.id
				r.outbox, r.outData = r.outbox[:0], 0
			}
			r.outMu.Unlock()
		}
		witnesses = append(witnesses, witness)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return witnesses, n.peerExchangeLocked(newRemote(n, 40, nopConn{}, "dialer", 41, 0))
}

// TestForwardAndExchangeFollowSeed: the T-Chain witness pick and the peer
// exchange sample draw from n.rng over the neighbours in ascending ID order,
// so two nodes over the same links, seeded alike, forward the same seals to
// the same witnesses and send a dialer the same Nodes frame.
func TestForwardAndExchangeFollowSeed(t *testing.T) {
	var witnesses [2][]int
	var exchanges [2]protocol.Message
	for i := range witnesses {
		witnesses[i], exchanges[i] = forward(forwardFixture(t, i == 1))
	}
	if !slices.Equal(witnesses[0], witnesses[1]) {
		t.Errorf("equal seeds forwarded to different witnesses:\n%v\n%v", witnesses[0], witnesses[1])
	}
	if slices.Contains(witnesses[0], -1) || slices.Contains(witnesses[0], 0) {
		t.Errorf("a seal went to no witness or back to its origin: %v", witnesses[0])
	}
	nodes, ok := exchanges[0].(protocol.Nodes)
	if !ok || len(nodes.Contacts) != 8 {
		t.Fatalf("peer exchange sent %+v, want 8 of the 40 neighbours", exchanges[0])
	}
	if !reflect.DeepEqual(exchanges[0], exchanges[1]) {
		t.Errorf("equal seeds sent different Nodes frames:\n%+v\n%+v", exchanges[0], exchanges[1])
	}
}

// idDigest is the first 16 bytes of SHA-256 over ids as little-endian
// int32s, in hex.
func idDigest[T ~int | ~int32](ids []T) string {
	h := sha256.New()
	var b [4]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint32(b[:], uint32(int32(id)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestDecisionDrawsPinned pins the draws of the two fixtures above to what
// the node produced when it kept its links in a map and sorted their IDs on
// every decision: a change to how the view lists or filters neighbours must
// leave every rng draw where it was.
func TestDecisionDrawsPinned(t *testing.T) {
	for _, c := range []struct {
		a            algo.Algorithm
		node, upload string
	}{
		{algo.Altruism, "15cce01d75d688f8fe546a280d2a52a0", "a5eb0527610733055904efc4f601800c"},
		{algo.BitTorrent, "1aeba1e96299eb6cd5473547ffb91160", "ff69ab7d89c28ce10781718a0cb932e4"},
		{algo.TChain, "2ab9edaca5eff11b0962e60ca79f05af", "771accbb89a9a0139f41813908b762f2"},
	} {
		if got := idDigest(decide(t, decisionFixture(t, false), c.a, false)); got != c.node {
			t.Errorf("%v through the node view: draws %s, want %s", c.a, got, c.node)
		}
		if got := idDigest(decide(t, decisionFixture(t, false), c.a, true)); got != c.upload {
			t.Errorf("%v through the upload view: draws %s, want %s", c.a, got, c.upload)
		}
	}
	witnesses, exchange := forward(forwardFixture(t, false))
	if got, want := idDigest(witnesses), "25d5b7174fd1e56e181f81e2e32ba818"; got != want {
		t.Errorf("witnesses %s, want %s", got, want)
	}
	var contacts []int32
	for _, c := range exchange.(protocol.Nodes).Contacts {
		contacts = append(contacts, c.ID)
	}
	if want := []int32{18, 23, 32, 30, 11, 31, 8, 10}; !slices.Equal(contacts, want) {
		t.Errorf("Nodes frame lists %v, want %v", contacts, want)
	}
}

// TestWantingViewMatchesFilter: on random links, holdings and requests —
// links with none and with full queues, complete and empty peers among them — both
// views' one-pass WantingNeighbors is the generic filter's list (Neighbors,
// then WantsFromMe) in contents and order, AnyWanting agrees with it, and
// Neighbors lists every link once in ascending ID order.
func TestWantingViewMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 500; round++ {
		pieces := []int{1, 63, 64, 65, 300}[rng.Intn(5)]
		random := func(density float64) *piece.Bitfield {
			b := piece.NewBitfield(pieces)
			for i := 0; i < pieces; i++ {
				if rng.Float64() < density {
					b.Set(i)
				}
			}
			return b
		}
		mine := random([]float64{0, 0.1, 0.5, 1}[rng.Intn(4)])
		n := &Node{myBits: mine}
		var ids []int
		for k := rng.Intn(51); k > 0; k-- {
			id := rng.Intn(100)
			if rng.Intn(10) == 0 {
				id = 1<<31 - 1 - rng.Intn(3)
			}
			if slices.Contains(ids, id) {
				continue
			}
			ids = append(ids, id)
			r := &remote{n: n, id: id}
			switch rng.Intn(4) {
			case 0:
				r.have = random(1) // complete
			case 1:
				r.have = mine.Clone() // holds what we hold
			default:
				r.have = random(rng.Float64())
			}
			// Every third link asks for nothing; the rest hold anything from
			// one request to a full queue.
			if k%3 != 0 {
				r.wants.n = 1 + rng.Intn(maxInFlight)
			}
			link(t, n, r)
		}
		slices.Sort(ids)
		for _, v := range []interface {
			incentive.NodeView
			WantingNeighbors() ([]incentive.PeerID, bool)
			AnyWanting() (bool, bool)
		}{n.view().(nodeView), uploadView{nodeView{n}}} {
			all := n.view().Neighbors()
			if len(all) != len(ids) || !slices.EqualFunc(all, ids, func(p incentive.PeerID, id int) bool { return int(p) == id }) {
				t.Fatalf("round %d: Neighbors = %v, want the linked IDs %v ascending", round, all, ids)
			}
			want := slices.DeleteFunc(slices.Clone(v.Neighbors()), func(p incentive.PeerID) bool { return !v.WantsFromMe(p) })
			got, ok := v.WantingNeighbors()
			if !ok || !slices.Equal(got, want) {
				t.Fatalf("round %d, %T: WantingNeighbors = %v (ok %v), the generic filter lists %v", round, v, got, ok, want)
			}
			if any, ok := v.AnyWanting(); !ok || any != (len(want) > 0) {
				t.Fatalf("round %d, %T: AnyWanting = %v (ok %v) over %v", round, v, any, ok, want)
			}
		}
	}
}

// TestLinksStaySorted drives link and unlink through a duplicate handshake,
// a replaced link, stale removals and a random sequence, and checks after
// every step that n.links lists each linked peer once, in ascending ID
// order, and that lookups find the link that is current.
func TestLinksStaySorted(t *testing.T) {
	s, err := incentive.New(algo.Altruism, incentive.Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := &Node{strategy: s}
	want := make(map[int]*remote)
	check := func(step string) {
		t.Helper()
		if !slices.IsSortedFunc(n.links, func(a, b *remote) int { return a.id - b.id }) || len(n.links) != len(want) {
			t.Fatalf("%s: links %v, want the %d linked peers ascending", step, linkIDs(n), len(want))
		}
		for i, r := range n.links {
			if i > 0 && n.links[i-1].id == r.id || want[r.id] != r || n.linkedLocked(r.id) != r {
				t.Fatalf("%s: links %v hold a duplicate or a stale link to %d", step, linkIDs(n), r.id)
			}
		}
	}
	add := func(r *remote) bool {
		ok := n.linkLocked(r)
		if ok {
			want[r.id] = r
		}
		return ok
	}
	drop := func(r *remote) {
		n.unlinkLocked(r)
		if want[r.id] == r {
			delete(want, r.id)
		}
	}
	for _, id := range []int{5, 1, 9, 3} {
		add(&remote{id: id})
	}
	check("initial links")
	if add(&remote{id: 3}) {
		t.Fatal("a second handshake from peer 3 was linked")
	}
	check("duplicate handshake")
	old := n.linkedLocked(9)
	drop(old)
	replacement := &remote{id: 9}
	add(replacement)
	drop(old)
	check("a replaced link's old remote unlinked")
	drop(&remote{id: 5})
	drop(&remote{id: 7})
	check("stale remotes unlinked")
	rng := rand.New(rand.NewSource(2))
	for step := 0; step < 2000; step++ {
		id := rng.Intn(64)
		switch cur := n.linkedLocked(id); {
		case cur != nil && rng.Intn(2) == 0:
			drop(cur)
		case cur != nil:
			drop(&remote{id: id}) // stale: never linked
		default:
			add(&remote{id: id})
		}
		check("random step")
	}
	if n.linkedLocked(64) != nil || n.linkedLocked(-1) != nil {
		t.Error("lookup found a peer never linked")
	}
}

func linkIDs(n *Node) []int {
	ids := make([]int, len(n.links))
	for i, r := range n.links {
		ids[i] = r.id
	}
	return ids
}
