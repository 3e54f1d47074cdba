package incentive

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attest"
	"repro/internal/reputation"
)

// seederID is the pseudo-peer the simulator's origin server appears as in
// strategy callbacks (sim.SeederID; sim imports this package).
const seederID PeerID = -2

// countingView counts every call a strategy makes on the view, so a test can
// assert that a decision was answered from the strategy's own books.
type countingView struct {
	*fakeView
	calls int
}

func (v *countingView) Self() PeerID              { v.calls++; return v.fakeView.Self() }
func (v *countingView) Now() float64              { v.calls++; return v.fakeView.Now() }
func (v *countingView) RNG() *rand.Rand           { v.calls++; return v.fakeView.RNG() }
func (v *countingView) Neighbors() []PeerID       { v.calls++; return v.fakeView.Neighbors() }
func (v *countingView) WantsFromMe(p PeerID) bool { v.calls++; return v.fakeView.WantsFromMe(p) }

// scanReciprocity is the mechanism's decision with no shortcut: the full
// neighbour scan as it stood before the owing count went in front of it.
func scanReciprocity(r *reciprocity, view NodeView) PeerID {
	best := NoPeer
	var bestContribution float64
	for _, n := range view.Neighbors() {
		owed := r.received[n] - r.sent[n]
		if owed <= 0 || !view.WantsFromMe(n) {
			continue
		}
		if r.received[n] > bestContribution {
			best, bestContribution = n, r.received[n]
		}
	}
	return best
}

// recountOwing counts the real peers the books show a debt to, from scratch.
func recountOwing(r *reciprocity) int {
	n := 0
	for p, got := range r.received {
		if p >= 0 && got-r.sent[p] > 0 {
			n++
		}
	}
	return n
}

// TestReciprocityShortcutEqualsScan drives random OnReceived / OnSent /
// Forget sequences over real and pseudo IDs while the neighbour set and its
// interest keep changing. At every step the decision must equal the full
// scan's, the owing count must equal a recount and never go negative, and a
// decision taken with nothing owed must not touch the view.
func TestReciprocityShortcutEqualsScan(t *testing.T) {
	ids := []PeerID{-3, seederID, 0, 1, 2, 3}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newReciprocity()
		v := &countingView{fakeView: newFakeView()}
		idle, busy := 0, 0
		for step := 0; step < 2000; step++ {
			peer := ids[rng.Intn(len(ids))]
			// Whole small byte counts, so debts are repaid exactly and the
			// count crosses zero in both directions many times per run.
			bytes := float64(1 + rng.Intn(3))
			// More sent than received, so books drift toward "nothing owed"
			// and Forget keeps resetting them to zero.
			switch op := rng.Intn(10); {
			case op < 3:
				r.OnReceived(v, peer, bytes)
			case op < 7:
				r.OnSent(v, peer, bytes)
			case op < 9:
				r.Forget(peer)
			default:
				v.neighbors = v.neighbors[:0]
				for _, id := range ids {
					if id >= 0 && rng.Intn(3) > 0 {
						v.neighbors = append(v.neighbors, id)
					}
					v.wants[id] = rng.Intn(4) > 0
				}
			}
			want := recountOwing(r)
			if r.owing != want || r.owing < 0 {
				t.Fatalf("seed %d step %d: owing = %d, recount %d", seed, step, r.owing, want)
			}
			v.calls = 0
			got := r.NextReceiver(v)
			calls := v.calls
			if ref := scanReciprocity(r, v); got != ref {
				t.Fatalf("seed %d step %d: NextReceiver = %v, full scan %v", seed, step, got, ref)
			}
			if want == 0 {
				idle++
				if calls != 0 {
					t.Fatalf("seed %d step %d: idle decision made %d view calls", seed, step, calls)
				}
			} else {
				busy++
			}
		}
		if idle < 100 || busy < 100 {
			t.Errorf("seed %d: %d idle and %d busy decisions; the sequence must exercise both", seed, idle, busy)
		}
	}
}

// TestReciprocityIdleWhenOnlySeederContributed is Figure 4's stalled case:
// every peer owes the seeder (a pseudo-peer) forever and nobody else, and
// that must read as idle — counting the seeder would send every poll down
// the neighbour scan.
func TestReciprocityIdleWhenOnlySeederContributed(t *testing.T) {
	r := newReciprocity()
	v := &countingView{fakeView: newFakeView(1, 2, 3)}
	r.OnReceived(v, seederID, 1000)
	v.calls = 0
	if got := r.NextReceiver(v); got != NoPeer || v.calls != 0 {
		t.Errorf("pick = %v after %d view calls, want NoPeer after none", got, v.calls)
	}
	r.OnReceived(v, 2, 10)
	if got := r.NextReceiver(v); got != 2 {
		t.Errorf("pick = %v, want creditor 2", got)
	}
	r.Forget(2)
	v.calls = 0
	if got := r.NextReceiver(v); got != NoPeer || v.calls != 0 {
		t.Errorf("after Forget: pick = %v after %d view calls, want NoPeer after none", got, v.calls)
	}
}

// mapFairTorrent is FairTorrent as it stood with its deficits in a Go map.
type mapFairTorrent map[PeerID]float64

func (m mapFairTorrent) NextReceiver(view NodeView) PeerID {
	best, bestDeficit, ties := NoPeer, 0.0, 0
	for _, p := range wantingNeighbors(view) {
		d := m[p]
		switch {
		case best == NoPeer || d < bestDeficit:
			best, bestDeficit, ties = p, d, 1
		case d == bestDeficit:
			ties++
			if view.RNG().Intn(ties) == 0 {
				best = p
			}
		}
	}
	return best
}

// TestFairTorrentTableEqualsMap drives the table and the map through random
// OnSent / OnReceived / Forget / NextReceiver sequences on twin RNGs, over
// dense IDs, IDs up to 2³¹−1 and pseudo-peers: same pick at every decision,
// and the same deficit for every real peer at every step.
func TestFairTorrentTableEqualsMap(t *testing.T) {
	ids := []PeerID{-3, seederID, 1<<31 - 1, 1<<31 - 2, 1 << 20, 12345}
	for id := PeerID(0); id < 40; id++ {
		ids = append(ids, id)
	}
	for seed := int64(1); seed <= 20; seed++ {
		f, ref := newFairTorrent(), mapFairTorrent{}
		v, rv := newFakeView(), newFakeView()
		v.rng, rv.rng = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		script := rand.New(rand.NewSource(-seed))
		picked := 0
		for step := 0; step < 3000; step++ {
			peer := ids[script.Intn(len(ids))]
			bytes := float64(1 + script.Intn(3)) // small whole counts: deficits return to 0 and tie
			switch op := script.Intn(10); {
			case op < 3:
				f.OnSent(v, peer, bytes)
				if peer >= 0 {
					ref[peer] += bytes
				}
			case op < 6:
				f.OnReceived(v, peer, bytes)
				if peer >= 0 {
					ref[peer] -= bytes
				}
			case op < 7:
				f.Forget(peer)
				delete(ref, peer)
			case op < 8:
				v.neighbors = v.neighbors[:0]
				for _, id := range ids {
					if id >= 0 && script.Intn(3) > 0 {
						v.neighbors = append(v.neighbors, id)
					}
					v.wants[id] = script.Intn(4) > 0
				}
				rv.neighbors, rv.wants = v.neighbors, v.wants
			}
			got, want := f.NextReceiver(v), ref.NextReceiver(rv)
			if got != want {
				t.Fatalf("seed %d step %d: table pick %v, map pick %v", seed, step, got, want)
			}
			if got != NoPeer {
				picked++
			}
			for _, id := range ids {
				if id >= 0 && f.deficit.Get(int(id)) != ref[id] {
					t.Fatalf("seed %d step %d: deficit[%d] = %g, map %g", seed, step, id, f.deficit.Get(int(id)), ref[id])
				}
			}
		}
		if picked < 1000 {
			t.Errorf("seed %d: only %d of 3000 decisions picked a peer", seed, picked)
		}
		if real := len(ids) - 2; f.deficit.Len() > real {
			t.Errorf("seed %d: table holds %d entries for %d real IDs; pseudo-peers are never stored", seed, f.deficit.Len(), real)
		}
	}
}

// sliceTChain is T-Chain's obligation FIFO as it stood: a slice popped with
// obligations[1:], so every append past the cap re-grew it.
type sliceTChain struct{ obligations []PeerID }

func (s *sliceTChain) NextReceiver(view NodeView) PeerID {
	for len(s.obligations) > 0 {
		target := s.obligations[0]
		s.obligations = s.obligations[1:]
		if view.WantsFromMe(target) {
			return target
		}
	}
	return randomPeer(view.RNG(), wantingNeighbors(view))
}

func (s *sliceTChain) OnReceived(view NodeView, from PeerID) {
	if view.WantsFromMe(from) {
		s.obligations = append(s.obligations, from)
	} else if w := randomPeer(view.RNG(), wantingNeighborsExcept(view, from)); w != NoPeer {
		s.obligations = append(s.obligations, w)
	}
	if maxQ := 4 * len(view.Neighbors()); maxQ > 0 && len(s.obligations) > maxQ {
		s.obligations = s.obligations[len(s.obligations)-maxQ:]
	}
}

func (s *sliceTChain) Forget(peer PeerID) {
	kept := s.obligations[:0]
	for _, o := range s.obligations {
		if o != peer {
			kept = append(kept, o)
		}
	}
	s.obligations = kept
}

// TestTChainQueueEqualsSlice runs the storage-reusing FIFO beside the slice
// it replaced on twin RNGs, with bursts of receipts that hit the drop-oldest
// cap, decisions that drain the queue, Forgets and a changing neighborhood:
// the same pick at every decision and the same pending obligations, in the
// same order, after every step.
func TestTChainQueueEqualsSlice(t *testing.T) {
	ids := []PeerID{seederID, 0, 1, 2, 3, 4, 5, 6, 7}
	for seed := int64(1); seed <= 20; seed++ {
		q, ref := newTChain(), &sliceTChain{}
		v, rv := newFakeView(1, 2), newFakeView(1, 2)
		v.rng, rv.rng = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		script := rand.New(rand.NewSource(-seed))
		most := 0
		for step := 0; step < 3000; step++ {
			switch op := script.Intn(10); {
			case op < 5:
				for k := 1 + script.Intn(6); k > 0; k-- {
					from := ids[script.Intn(len(ids))]
					q.OnReceived(v, from, 1)
					ref.OnReceived(rv, from)
				}
			case op < 8:
				if got, want := q.NextReceiver(v), ref.NextReceiver(rv); got != want {
					t.Fatalf("seed %d step %d: queue pick %v, slice pick %v", seed, step, got, want)
				}
			case op < 9:
				peer := ids[script.Intn(len(ids))]
				q.Forget(peer)
				ref.Forget(peer)
			default:
				v.neighbors = v.neighbors[:0]
				for _, id := range ids {
					if id >= 0 && script.Intn(3) == 0 {
						v.neighbors = append(v.neighbors, id)
					}
					v.wants[id] = script.Intn(4) > 0
				}
				rv.neighbors, rv.wants = v.neighbors, v.wants
			}
			if pending := q.obligations[q.head:]; !slices.Equal(pending, ref.obligations) {
				t.Fatalf("seed %d step %d: pending %v, slice %v", seed, step, pending, ref.obligations)
			}
			// Storage stays within twice the longest queue so far: served
			// and dropped entries are reused, not leaked.
			most = max(most, len(ref.obligations))
			if len(q.obligations) > 2*most+1 {
				t.Fatalf("seed %d step %d: queue storage at %d entries, longest queue %d", seed, step, len(q.obligations), most)
			}
		}
	}
}

// scoreEachReputation is the reputation decision as it stood before the
// one-lock read: one Ledger.Score call (one lock round trip) per candidate.
func scoreEachReputation(p Params, ledger *reputation.Ledger, view NodeView) PeerID {
	wanting := wantingNeighbors(view)
	if len(wanting) == 0 {
		return NoPeer
	}
	rng := view.RNG()
	if rng.Float64() < p.AlphaR {
		return randomPeer(rng, wanting)
	}
	var total float64
	for _, id := range wanting {
		total += ledger.Score(int(id))
	}
	if total <= 0 {
		return NoPeer
	}
	target := rng.Float64() * total
	var acc float64
	for _, id := range wanting {
		acc += ledger.Score(int(id))
		if target < acc {
			return id
		}
	}
	return wanting[len(wanting)-1]
}

// TestReputationOneLockReadEqualsPerCandidate runs the strategy and the
// per-candidate reference side by side on identically seeded RNGs while the
// ledger, the neighbour set and its interest change: same pick, and so the
// same number of RNG draws, at every decision.
func TestReputationOneLockReadEqualsPerCandidate(t *testing.T) {
	params := DefaultParams()
	for seed := int64(1); seed <= 10; seed++ {
		ledger := reputation.NewLedger(attest.AcceptAll{})
		s := newReputation(params, ledger)
		v, ref := newFakeView(), newFakeView()
		v.rng, ref.rng = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		script := rand.New(rand.NewSource(-seed))
		picked := 0
		for step := 0; step < 2000; step++ {
			switch op := script.Intn(10); {
			case op < 5:
				// Odd byte counts make the float sums order-sensitive.
				mustCredit(t, ledger, attest.Claim(int32(script.Intn(12)), -1, 0, int64(1+script.Intn(1<<20))))
			case op < 6:
				ledger.Reset(script.Intn(12))
			default:
				v.neighbors = v.neighbors[:0]
				for id := PeerID(0); id < 16; id++ { // 12..15 never earn a score
					if script.Intn(3) > 0 {
						v.neighbors = append(v.neighbors, id)
					}
					v.wants[id] = script.Intn(4) > 0
				}
				ref.neighbors, ref.wants = v.neighbors, v.wants
			}
			got, want := s.NextReceiver(v), scoreEachReputation(params, ledger, ref)
			if got != want {
				t.Fatalf("seed %d step %d: one-lock pick %v, per-candidate pick %v", seed, step, got, want)
			}
			if got != NoPeer {
				picked++
			}
		}
		if picked < 500 {
			t.Errorf("seed %d: only %d of 2000 decisions picked a peer", seed, picked)
		}
	}
}

// TestReputationDecisionDuringCredit: the live node credits the shared
// ledger from its receive goroutines while the upload loop decides, so the
// one-lock read must be safe against concurrent Credit (run under -race).
func TestReputationDecisionDuringCredit(t *testing.T) {
	ledger := reputation.NewLedger(attest.AcceptAll{})
	s := newReputation(DefaultParams(), ledger)
	v := newFakeView(0, 1, 2, 3, 4, 5, 6, 7)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := ledger.Credit(attest.Claim(int32(i%8), -1, int32(i), 1)); err != nil {
				t.Errorf("Credit: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		if got := s.NextReceiver(v); got != NoPeer && (got < 0 || got > 7) {
			t.Errorf("picked %v, not a neighbour", got)
			break
		}
	}
	close(stop)
	<-done
}

// probingView is a fakeView with the optional capabilities the simulator's
// view implements: the wanting list in one call, and whether anyone wants,
// stopping at the first. It counts the calls to each.
type probingView struct {
	*fakeView
	lists, probes int
}

func (v *probingView) WantingNeighbors() ([]PeerID, bool) {
	v.lists++
	out := v.fakeView.Neighbors()[:0]
	for _, n := range v.neighbors {
		if v.wants[n] {
			out = append(out, n)
		}
	}
	return out, true
}

func (v *probingView) AnyWanting() (wanting, ok bool) {
	v.probes++
	return slices.ContainsFunc(v.neighbors, func(n PeerID) bool { return v.wants[n] }), true
}

// TestBitTorrentSameDecisionsWithProbe runs BitTorrent over a view with the
// capabilities and over one with the same neighbours without them, on twin
// RNGs, while contributions, rounds and interest change: the same pick at
// every decision, through the all-uninterested, optimistic and tit-for-tat
// branches alike, with the probed view asking for the full list only on the
// optimistic branch.
func TestBitTorrentSameDecisionsWithProbe(t *testing.T) {
	const decisions = 10000
	probed, plain := newBitTorrent(DefaultParams()), newBitTorrent(DefaultParams())
	pv, v := &probingView{fakeView: newFakeView()}, newFakeView()
	pv.rng, v.rng = rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	script := rand.New(rand.NewSource(-42))
	var idle, optimistic, titForTat int
	for d := 0; d < decisions; d++ {
		switch op := script.Intn(10); {
		case op < 3:
			from, bytes := PeerID(script.Intn(12)), float64(1+script.Intn(1000))
			probed.OnReceived(pv, from, bytes)
			plain.OnReceived(v, from, bytes)
		case op < 4:
			pv.now += 4 // a round is 10 s
			v.now = pv.now
		case op < 6:
			v.neighbors = v.neighbors[:0]
			clear(v.wants)
			for id := PeerID(0); id < 12; id++ {
				if script.Intn(2) == 0 {
					v.neighbors = append(v.neighbors, id)
				}
				// Often nobody wants: the all-uninterested branch.
				v.wants[id] = script.Intn(8) == 0
			}
			pv.neighbors, pv.wants = v.neighbors, v.wants
		}
		lists := pv.lists
		got, want := probed.NextReceiver(pv), plain.NextReceiver(v)
		if got != want {
			t.Fatalf("decision %d: probed view picked %v, plain view %v", d, got, want)
		}
		switch {
		case !slices.ContainsFunc(v.neighbors, func(n PeerID) bool { return v.wants[n] }):
			idle++
		case pv.lists > lists:
			optimistic++
		default:
			titForTat++
		}
	}
	if pv.probes != decisions {
		t.Errorf("AnyWanting asked %d times in %d decisions, want once each", pv.probes, decisions)
	}
	if idle < 1000 || optimistic < 500 || titForTat < 1000 {
		t.Errorf("%d idle, %d optimistic and %d tit-for-tat decisions; the script must exercise every branch", idle, optimistic, titForTat)
	}
}
