package incentive

import (
	"math/rand"
	"testing"

	"repro/internal/algo"
	"repro/internal/attest"
	"repro/internal/reputation"
)

// mustCredit seeds a ledger score through the proof-first API.
func mustCredit(t *testing.T, l *reputation.Ledger, att attest.Attestation) {
	t.Helper()
	if err := l.Credit(att); err != nil {
		t.Fatalf("Credit: %v", err)
	}
}

// fakeView is a scriptable NodeView for strategy unit tests.
type fakeView struct {
	self      PeerID
	now       float64
	rng       *rand.Rand
	neighbors []PeerID
	wants     map[PeerID]bool // peer needs a piece I hold
}

var _ NodeView = (*fakeView)(nil)

func newFakeView(neighbors ...PeerID) *fakeView {
	v := &fakeView{
		self:      100,
		rng:       rand.New(rand.NewSource(1)),
		neighbors: neighbors,
		wants:     make(map[PeerID]bool),
	}
	for _, n := range neighbors {
		v.wants[n] = true
	}
	return v
}

func (v *fakeView) Self() PeerID    { return v.self }
func (v *fakeView) Now() float64    { return v.now }
func (v *fakeView) RNG() *rand.Rand { return v.rng }

// Neighbors hands out a copy: the NodeView contract lets strategies filter
// the returned slice in place, and the fake must keep its script intact.
func (v *fakeView) Neighbors() []PeerID {
	out := make([]PeerID, len(v.neighbors))
	copy(out, v.neighbors)
	return out
}
func (v *fakeView) WantsFromMe(p PeerID) bool { return v.wants[p] }

func TestFactoryAllAlgorithms(t *testing.T) {
	ledger := reputation.NewLedger(attest.AcceptAll{})
	for _, a := range algo.All() {
		s, err := New(a, Params{}, ledger)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if s.Algorithm() != a {
			t.Errorf("%v reports %v", a, s.Algorithm())
		}
	}
	if _, err := New(algo.Reputation, Params{}, nil); err == nil {
		t.Error("reputation without ledger accepted")
	}
	if _, err := New(algo.Algorithm(99), Params{}, ledger); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := New(algo.Altruism, Params{AlphaBT: 2}, nil); err == nil {
		t.Error("bad params accepted")
	}
}

func TestParamsNormalize(t *testing.T) {
	p, err := (Params{}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if p != DefaultParams() {
		t.Errorf("zero params normalized to %+v", p)
	}
	bad := []Params{
		{AlphaBT: -0.1, NBT: 1, RoundSeconds: 1, AlphaR: 0.1},
		{AlphaBT: 0.2, NBT: -1, RoundSeconds: 1, AlphaR: 0.1},
		{AlphaBT: 0.2, NBT: 1, RoundSeconds: -1, AlphaR: 0.1},
		{AlphaBT: 0.2, NBT: 1, RoundSeconds: 1, AlphaR: 1.1},
	}
	for i, b := range bad {
		if _, err := b.Normalize(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestAltruismPicksRandomWanting(t *testing.T) {
	s := newAltruism()
	v := newFakeView(1, 2, 3)
	v.wants[2] = false
	counts := map[PeerID]int{}
	for i := 0; i < 1000; i++ {
		counts[s.NextReceiver(v)]++
	}
	if counts[2] != 0 {
		t.Error("altruism picked uninterested neighbor")
	}
	if counts[1] == 0 || counts[3] == 0 {
		t.Errorf("altruism not spreading: %v", counts)
	}
	// No candidates -> NoPeer.
	empty := newFakeView()
	if got := s.NextReceiver(empty); got != NoPeer {
		t.Errorf("empty view pick = %v", got)
	}
}

func TestReciprocityNeverInitiates(t *testing.T) {
	s := newReciprocity()
	v := newFakeView(1, 2, 3)
	for i := 0; i < 100; i++ {
		if got := s.NextReceiver(v); got != NoPeer {
			t.Fatalf("reciprocity initiated an upload to %v", got)
		}
	}
}

func TestReciprocityReciprocatesTopContributor(t *testing.T) {
	s := newReciprocity()
	v := newFakeView(1, 2, 3)
	s.OnReceived(v, 1, 100)
	s.OnReceived(v, 2, 300)
	if got := s.NextReceiver(v); got != 2 {
		t.Errorf("pick = %v, want top contributor 2", got)
	}
	// After reciprocating in full, peer 2 is no longer owed.
	s.OnSent(v, 2, 300)
	if got := s.NextReceiver(v); got != 1 {
		t.Errorf("pick = %v, want 1 after settling with 2", got)
	}
	s.OnSent(v, 1, 100)
	if got := s.NextReceiver(v); got != NoPeer {
		t.Errorf("pick = %v, want NoPeer when nothing owed", got)
	}
}

func TestReciprocityForget(t *testing.T) {
	s := newReciprocity()
	v := newFakeView(1)
	s.OnReceived(v, 1, 100)
	s.Forget(1)
	if got := s.NextReceiver(v); got != NoPeer {
		t.Errorf("pick after Forget = %v", got)
	}
}

func TestBitTorrentSplitsTitForTatAndOptimistic(t *testing.T) {
	s := newBitTorrent(Params{AlphaBT: 0.2, NBT: 2, RoundSeconds: 10})
	v := newFakeView(1, 2, 3, 4)
	// Peers 1 and 2 contributed; 3, 4 did not.
	s.OnReceived(v, 1, 500)
	s.OnReceived(v, 2, 400)
	counts := map[PeerID]int{}
	const trials = 20000
	for i := 0; i < trials; i++ {
		counts[s.NextReceiver(v)]++
	}
	// ~80% to {1,2}, ~20% spread over all four.
	tftShare := float64(counts[1]+counts[2]) / trials
	if tftShare < 0.82 || tftShare > 0.95 {
		t.Errorf("contributors received %.3f of picks, want ~0.85-0.90: %v", tftShare, counts)
	}
	if counts[3] == 0 || counts[4] == 0 {
		t.Error("optimistic unchoke never reached non-contributors")
	}
}

func TestBitTorrentIdlesWithoutContributors(t *testing.T) {
	s := newBitTorrent(DefaultParams())
	v := newFakeView(1, 2, 3)
	noPeer, picked := 0, 0
	for i := 0; i < 10000; i++ {
		if s.NextReceiver(v) == NoPeer {
			noPeer++
		} else {
			picked++
		}
	}
	// With no contributions, only the α_BT = 20% optimistic branch fires.
	frac := float64(picked) / 10000
	if frac < 0.17 || frac > 0.23 {
		t.Errorf("pick fraction %.3f, want ~0.2", frac)
	}
	if noPeer == 0 {
		t.Error("tit-for-tat share should idle without contributors")
	}
}

func TestBitTorrentRoundRotation(t *testing.T) {
	s := newBitTorrent(Params{AlphaBT: 0, NBT: 4, RoundSeconds: 10})
	v := newFakeView(1, 2)
	s.OnReceived(v, 1, 100)
	if got := s.NextReceiver(v); got != 1 {
		t.Fatalf("pick = %v, want 1", got)
	}
	// Two rounds later the old contribution has aged out entirely.
	v.now = 11
	s.NextReceiver(v) // triggers first rotation (100 moves to previous)
	v.now = 22
	if got := s.NextReceiver(v); got != NoPeer {
		t.Errorf("pick = %v after contribution aged out, want NoPeer", got)
	}
}

func TestBitTorrentTopNBTOnly(t *testing.T) {
	s := newBitTorrent(Params{AlphaBT: 0.001, NBT: 2, RoundSeconds: 1000})
	v := newFakeView(1, 2, 3)
	s.OnReceived(v, 1, 300)
	s.OnReceived(v, 2, 200)
	s.OnReceived(v, 3, 100) // third-best: outside top-2
	counts := map[PeerID]int{}
	for i := 0; i < 5000; i++ {
		counts[s.NextReceiver(v)]++
	}
	if counts[3] > 50 { // only via the 0.1% optimistic branch
		t.Errorf("third contributor picked %d times, want ~never", counts[3])
	}
}

func TestFairTorrentServesMostOwedFirst(t *testing.T) {
	s := newFairTorrent()
	v := newFakeView(1, 2, 3)
	s.OnReceived(v, 2, 100) // deficit[2] = -100: we owe 2 the most
	s.OnReceived(v, 3, 50)
	if got := s.NextReceiver(v); got != 2 {
		t.Errorf("pick = %v, want most-owed peer 2", got)
	}
	s.OnSent(v, 2, 100) // settled
	if got := s.NextReceiver(v); got != 3 {
		t.Errorf("pick = %v, want next-owed peer 3", got)
	}
}

func TestFairTorrentAltruismAtZeroDeficit(t *testing.T) {
	// All deficits zero: uniform pick among wanting (the bootstrap path).
	s := newFairTorrent()
	v := newFakeView(1, 2, 3)
	counts := map[PeerID]int{}
	for i := 0; i < 3000; i++ {
		counts[s.NextReceiver(v)]++
	}
	for _, p := range []PeerID{1, 2, 3} {
		if counts[p] < 800 {
			t.Errorf("peer %v picked %d of 3000, want ~1000", p, counts[p])
		}
	}
}

func TestFairTorrentPrefersNewcomerOverCreditor(t *testing.T) {
	s := newFairTorrent()
	v := newFakeView(1, 2)
	s.OnSent(v, 1, 100) // deficit[1] = +100: we already over-served 1
	if got := s.NextReceiver(v); got != 2 {
		t.Errorf("pick = %v, want zero-deficit newcomer 2", got)
	}
	s.Forget(1) // whitewash: 1 is back at zero deficit
	counts := map[PeerID]int{}
	for i := 0; i < 1000; i++ {
		counts[s.NextReceiver(v)]++
	}
	if counts[1] == 0 {
		t.Error("whitewashed peer no longer eligible")
	}
}

func TestReputationWeightedPick(t *testing.T) {
	ledger := reputation.NewLedger(attest.AcceptAll{})
	mustCredit(t, ledger, attest.Claim(1, 9, 0, 900))
	mustCredit(t, ledger, attest.Claim(2, 9, 0, 100))
	p, _ := (Params{AlphaR: 0.0001, AlphaBT: 0.2, NBT: 4, RoundSeconds: 10}).Normalize()
	s := newReputation(p, ledger)
	v := newFakeView(1, 2, 3)
	counts := map[PeerID]int{}
	const trials = 20000
	for i := 0; i < trials; i++ {
		counts[s.NextReceiver(v)]++
	}
	frac1 := float64(counts[1]) / trials
	if frac1 < 0.85 || frac1 > 0.95 {
		t.Errorf("high-rep peer share %.3f, want ~0.9", frac1)
	}
	if counts[3] > trials/100 {
		t.Errorf("zero-rep peer picked %d times with tiny alphaR", counts[3])
	}
}

func TestReputationIdlesWhenAllZero(t *testing.T) {
	ledger := reputation.NewLedger(attest.AcceptAll{})
	p, _ := (Params{AlphaR: 0.1, AlphaBT: 0.2, NBT: 4, RoundSeconds: 10}).Normalize()
	s := newReputation(p, ledger)
	v := newFakeView(1, 2)
	picked := 0
	for i := 0; i < 10000; i++ {
		if s.NextReceiver(v) != NoPeer {
			picked++
		}
	}
	frac := float64(picked) / 10000
	if frac < 0.07 || frac > 0.13 {
		t.Errorf("zero-rep pick fraction %.3f, want ~alphaR = 0.1", frac)
	}
}

func TestTChainObligationPriority(t *testing.T) {
	s := newTChain()
	v := newFakeView(1, 2, 3)
	// Receiving from 1, and 1 wants from me -> direct obligation to 1.
	s.OnReceived(v, 1, 100)
	if got := s.NextReceiver(v); got != 1 {
		t.Errorf("pick = %v, want direct obligation to 1", got)
	}
	// Obligation consumed; next pick is opportunistic (any wanting).
	if got := s.NextReceiver(v); got == NoPeer {
		t.Error("opportunistic seeding should always find a wanting neighbor")
	}
}

func TestTChainIndirectObligationForNewcomer(t *testing.T) {
	s := newTChain()
	v := newFakeView(1, 2)
	v.wants[1] = false // sender 1 needs nothing from me -> indirect
	s.OnReceived(v, 1, 100)
	if got := s.NextReceiver(v); got != 2 {
		t.Errorf("pick = %v, want indirect target 2", got)
	}
}

func TestTChainStaleObligationDropped(t *testing.T) {
	s := newTChain()
	v := newFakeView(1, 2)
	s.OnReceived(v, 1, 100) // direct obligation to 1
	v.wants[1] = false      // 1 finished; no longer wants
	if got := s.NextReceiver(v); got != 2 {
		t.Errorf("pick = %v, want fallthrough to opportunistic 2", got)
	}
}

func TestTChainForgetDropsObligations(t *testing.T) {
	s := newTChain()
	v := newFakeView(1, 2)
	s.OnReceived(v, 1, 100)
	s.Forget(1)
	if got := s.NextReceiver(v); got != 2 {
		t.Errorf("pick = %v after Forget, want 2", got)
	}
}

func TestTChainOpportunisticSpreadsUniformly(t *testing.T) {
	// With no obligations pending, opportunistic seeding is a uniform pick
	// among interested neighbors (Corollary 2: T-Chain approaches
	// altruism's exchange probability).
	s := newTChain()
	v := newFakeView(1, 2)
	counts := map[PeerID]int{}
	for i := 0; i < 5000; i++ {
		counts[s.NextReceiver(v)]++
	}
	for _, p := range []PeerID{1, 2} {
		if counts[p] < 2200 || counts[p] > 2800 {
			t.Errorf("peer %v picked %d of 5000, want ~2500", p, counts[p])
		}
	}
}

func TestTChainObligationQueueBounded(t *testing.T) {
	s := newTChain()
	v := newFakeView(1, 2, 3)
	for i := 0; i < 1000; i++ {
		s.OnReceived(v, 1, 1)
	}
	if pending := len(s.obligations) - s.head; pending > 4*len(v.neighbors) {
		t.Errorf("obligation queue grew to %d", pending)
	}
}

func TestStrategiesHandleEmptyNeighborhood(t *testing.T) {
	ledger := reputation.NewLedger(attest.AcceptAll{})
	empty := newFakeView()
	for _, a := range algo.All() {
		s, err := New(a, Params{}, ledger)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.NextReceiver(empty); got != NoPeer {
			t.Errorf("%v picked %v from empty neighborhood", a, got)
		}
		// Hooks must not panic on unknown peers.
		s.OnSent(empty, 42, 10)
		s.OnReceived(empty, 42, 10)
		s.Forget(42)
	}
}
