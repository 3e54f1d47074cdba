package node

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algo"
	"repro/internal/incentive"
)

// TestViewDecisionsFollowSeed: the strategy view hands out neighbours in
// ascending ID order, so two nodes over the same links, with rngs seeded
// alike, make the same decisions. n.peers is a map, and a view that ranged
// over it would hand each decision's draw a differently ordered list.
func TestViewDecisionsFollowSeed(t *testing.T) {
	const peers, decisions = 40, 200
	for _, a := range []algo.Algorithm{algo.Altruism, algo.BitTorrent} {
		var nodes [2]*Node
		var strategies [2]incentive.Strategy
		for i := range nodes {
			n := &Node{peers: make(map[int]*remote), rng: rand.New(rand.NewSource(7))}
			// Link in opposite orders: the map's contents are the same.
			for k := 0; k < peers; k++ {
				id := k
				if i == 1 {
					id = peers - 1 - k
				}
				n.peers[id] = &remote{n: n, id: id, theyNeed: id % 3}
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
		v := nodes[0].view().(nodeView)
		if ids := v.Neighbors(); !slices.IsSorted(ids) || len(ids) != peers {
			t.Errorf("Neighbors = %v, want %d ascending IDs", ids, peers)
		}
		wanting, _ := v.WantingNeighbors()
		if !slices.IsSorted(wanting) {
			t.Errorf("WantingNeighbors = %v, want ascending IDs", wanting)
		}
		if wants, ok := v.AnyWanting(); !ok || wants != (len(wanting) > 0) {
			t.Errorf("AnyWanting = %v, %v with %d wanting", wants, ok, len(wanting))
		}
	}
}
