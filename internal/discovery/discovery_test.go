package discovery

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
)

func TestIDOfDeterministicAndSpread(t *testing.T) {
	if IDOf(42) != IDOf(42) {
		t.Fatal("IDOf not deterministic")
	}
	// Sequential node IDs must land in many distinct buckets relative to
	// node 0 — the whole point of mixing them.
	self := IDOf(0)
	buckets := map[int]bool{}
	for i := 1; i < 256; i++ {
		buckets[BucketOf(self, IDOf(i))] = true
	}
	if len(buckets) < 6 {
		t.Fatalf("256 sequential IDs spread over only %d buckets", len(buckets))
	}
	if BucketOf(self, self) != -1 {
		t.Error("self distance must have no bucket")
	}
}

func TestTableAddRefreshAndEvictionCandidate(t *testing.T) {
	tb := NewTable(0, 2)
	// Find three distinct node IDs sharing one bucket relative to node 0.
	self := tb.Self()
	byBucket := map[int][]int{}
	var bucket int
	var ids []int
	for i := 1; i < 4096 && ids == nil; i++ {
		b := BucketOf(self, IDOf(i))
		byBucket[b] = append(byBucket[b], i)
		if len(byBucket[b]) == 3 {
			bucket, ids = b, byBucket[b]
		}
	}
	if ids == nil {
		t.Fatal("could not find three colliding IDs")
	}
	c := func(i int) Contact { return Contact{NodeID: ids[i], Addr: fmt.Sprintf("mem://%d", ids[i])} }

	if _, added := tb.Add(c(0)); !added {
		t.Fatal("first add rejected")
	}
	if _, added := tb.Add(c(1)); !added {
		t.Fatal("second add rejected")
	}
	if tb.Size() != 2 {
		t.Fatalf("size %d, want 2", tb.Size())
	}
	// Bucket full: the third contact is refused and the least-recently-seen
	// contact (the first added) comes back as the eviction candidate.
	evict, added := tb.Add(c(2))
	if added {
		t.Fatalf("bucket %d overfilled", bucket)
	}
	if evict.NodeID != ids[0] {
		t.Fatalf("eviction candidate %d, want least-recently-seen %d", evict.NodeID, ids[0])
	}
	// Refreshing the LRU contact moves it to most-recent: the candidate
	// rotates to the other entry.
	if _, added := tb.Add(c(0)); !added {
		t.Fatal("refresh of known contact rejected")
	}
	if evict, _ := tb.Add(c(2)); evict.NodeID != ids[1] {
		t.Fatalf("after refresh candidate %d, want %d", evict.NodeID, ids[1])
	}
	// Removing the candidate makes room.
	tb.Remove(Contact{NodeID: ids[1]})
	if _, added := tb.Add(c(2)); !added {
		t.Fatal("add after eviction rejected")
	}
	if tb.Size() != 2 {
		t.Fatalf("size %d after evict+add, want 2", tb.Size())
	}
	// Self and unroutable contacts are refused.
	if _, added := tb.Add(Contact{NodeID: 0, Addr: "mem://0"}); added {
		t.Error("table routed itself")
	}
	if _, added := tb.Add(Contact{NodeID: 9999, Addr: ""}); added {
		t.Error("table routed an address-less contact")
	}
}

func TestClosestOrdering(t *testing.T) {
	tb := NewTable(0, 16)
	for i := 1; i <= 128; i++ {
		tb.Add(Contact{NodeID: i, Addr: fmt.Sprintf("mem://%d", i)})
	}
	target := IDOf(77)
	got := tb.Closest(target, 8)
	if len(got) != 8 {
		t.Fatalf("got %d contacts, want 8", len(got))
	}
	for i := 1; i < len(got); i++ {
		if Distance(got[i-1].ID(), target) > Distance(got[i].ID(), target) {
			t.Fatalf("closest not sorted at %d", i)
		}
	}
	// Brute force: the first result is the global minimum.
	all := tb.Contacts()
	sort.Slice(all, func(i, j int) bool {
		return Distance(all[i].ID(), target) < Distance(all[j].ID(), target)
	})
	if got[0] != all[0] {
		t.Fatalf("closest[0] = %v, brute force %v", got[0], all[0])
	}
}

func TestNeighborCandidatesSpanBuckets(t *testing.T) {
	tb := NewTable(0, 16)
	for i := 1; i <= 256; i++ {
		tb.Add(Contact{NodeID: i, Addr: fmt.Sprintf("mem://%d", i)})
	}
	cands := tb.NeighborCandidates(8)
	if len(cands) != 8 {
		t.Fatalf("got %d candidates, want 8", len(cands))
	}
	// The first candidates must come from distinct buckets (one per
	// nonempty bucket before any bucket repeats).
	seen := map[int]int{}
	distinct := 0
	for _, c := range cands {
		b := BucketOf(tb.Self(), c.ID())
		if seen[b] == 0 {
			distinct++
		}
		seen[b]++
	}
	if distinct < 4 {
		t.Fatalf("candidates cover only %d buckets", distinct)
	}
	// No duplicates.
	ids := map[int]bool{}
	for _, c := range cands {
		if ids[c.NodeID] {
			t.Fatalf("candidate %d repeated", c.NodeID)
		}
		ids[c.NodeID] = true
	}
}

func TestRefreshTargetLandsInKnownBucket(t *testing.T) {
	tb := NewTable(0, 4)
	rng := rand.New(rand.NewSource(1))
	if tb.RefreshTarget(rng) == tb.Self() {
		t.Error("empty-table refresh target equals self")
	}
	for i := 1; i <= 64; i++ {
		tb.Add(Contact{NodeID: i, Addr: fmt.Sprintf("mem://%d", i)})
	}
	nonempty := map[int]bool{}
	for _, c := range tb.Contacts() {
		nonempty[BucketOf(tb.Self(), c.ID())] = true
	}
	for i := 0; i < 50; i++ {
		target := tb.RefreshTarget(rng)
		if !nonempty[BucketOf(tb.Self(), target)] {
			t.Fatalf("refresh target in empty bucket %d", BucketOf(tb.Self(), target))
		}
	}
}

// fakeNetwork simulates a converged Kademlia overlay: every node routes
// its k closest peers plus a few random long links, and answers FindNode
// from that table.
type fakeNetwork struct {
	tables map[int]*Table
	nodes  []Contact
	down   map[int]bool
	// queries counts FindNode RPCs, for sanity bounds; atomic because a
	// lookup issues alpha queries concurrently.
	queries atomic.Int64
}

func newFakeNetwork(n, k int, seed int64) *fakeNetwork {
	rng := rand.New(rand.NewSource(seed))
	net := &fakeNetwork{tables: make(map[int]*Table), down: map[int]bool{}}
	for i := 0; i < n; i++ {
		net.nodes = append(net.nodes, Contact{NodeID: i, Addr: fmt.Sprintf("mem://%d", i)})
	}
	for i := 0; i < n; i++ {
		tb := NewTable(i, k)
		self := IDOf(i)
		sorted := append([]Contact(nil), net.nodes...)
		sort.Slice(sorted, func(a, b int) bool {
			return Distance(sorted[a].ID(), self) < Distance(sorted[b].ID(), self)
		})
		for _, c := range sorted[1 : k+1] { // skip self at distance 0
			tb.Add(c)
		}
		for j := 0; j < k; j++ { // random long links fill far buckets
			tb.Add(net.nodes[rng.Intn(n)])
		}
		net.tables[i] = tb
	}
	return net
}

func (f *fakeNetwork) query(c Contact, target ID) ([]Contact, error) {
	f.queries.Add(1)
	if f.down[c.NodeID] {
		return nil, errors.New("unreachable")
	}
	return f.tables[c.NodeID].Closest(target, f.tables[c.NodeID].K()), nil
}

func TestLookupFindsGlobalClosest(t *testing.T) {
	const n, k, alpha = 200, 8, 3
	net := newFakeNetwork(n, k, 1)
	// A fresh joiner knows only three bootstrap contacts.
	tb := NewTable(5000, k)
	for _, c := range net.nodes[:3] {
		tb.Add(c)
	}
	for _, targetNode := range []int{7, 123, 199} {
		target := IDOf(targetNode)
		got := tb.Lookup(target, k, alpha, net.query)
		if len(got) == 0 {
			t.Fatalf("lookup for node %d found nothing", targetNode)
		}
		if got[0].NodeID != targetNode {
			t.Errorf("lookup for node %d converged on node %d", targetNode, got[0].NodeID)
		}
	}
	if tb.Size() < k {
		t.Errorf("lookup populated only %d table entries", tb.Size())
	}
}

func TestLookupToleratesFailures(t *testing.T) {
	const n, k, alpha = 120, 8, 3
	net := newFakeNetwork(n, k, 2)
	rng := rand.New(rand.NewSource(3))
	for i := 1; i < n; i++ { // a fifth of the overlay is dead
		if rng.Float64() < 0.2 && i != 60 {
			net.down[i] = true
		}
	}
	tb := NewTable(5000, k)
	for _, c := range net.nodes[:3] {
		tb.Add(c)
	}
	got := tb.Lookup(IDOf(60), k, alpha, net.query)
	found := false
	for _, c := range got {
		if net.down[c.NodeID] {
			t.Errorf("lookup returned dead contact %d", c.NodeID)
		}
		if c.NodeID == 60 {
			found = true
		}
	}
	if !found {
		t.Error("lookup missed the live target despite failures")
	}
}

func TestLookupQueryBudgetBounded(t *testing.T) {
	const n, k, alpha = 500, 16, 3
	net := newFakeNetwork(n, k, 4)
	tb := NewTable(5000, k)
	for _, c := range net.nodes[:3] {
		tb.Add(c)
	}
	tb.Lookup(IDOf(321), k, alpha, net.query)
	// An iterative lookup touches O(k log n) contacts, nowhere near the
	// whole population — the property that makes 1000+-node swarms cheap.
	if q := net.queries.Load(); q > n/4 {
		t.Fatalf("lookup spent %d queries on a %d-node overlay", q, n)
	}
}

// BenchmarkDHTLookup measures one iterative lookup (alpha=3, k=16) on a
// converged 1024-node overlay with in-memory queries: the routing-layer
// cost floor under BenchmarkDiscoveryConvergence256, excluding transport
// time.
func BenchmarkDHTLookup(b *testing.B) {
	const n, k, alpha = 1024, 16, 3
	net := newFakeNetwork(n, k, 5)
	rng := rand.New(rand.NewSource(6))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := NewTable(5000+i, k)
		for _, c := range net.nodes[:3] {
			tb.Add(c)
		}
		tb.Lookup(IDOf(rng.Intn(n)), k, alpha, net.query)
	}
}
