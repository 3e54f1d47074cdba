package sim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/algo"
	"repro/internal/attack"
	"repro/internal/incentive"
	"repro/internal/piece"
	"repro/internal/probe"
)

// TestSimulationInvariantsProperty drives many small randomized scenarios
// through the simulator and checks the invariants that must hold for every
// configuration:
//
//  1. bytes are conserved: credited ≤ raw received ≤ total uploaded,
//  2. a finished peer downloaded exactly the file size,
//  3. susceptibility lies in [0, 1] and is 0 without free-riders,
//  4. bootstrap precedes finish for every peer,
//  5. the monotone series never decrease.
func TestSimulationInvariantsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test runs many simulations")
	}
	f := func(seed int64, algoPick, frPick, atkPick uint8) bool {
		algorithms := append(algo.All(), algo.PropShare)
		a := algorithms[int(algoPick)%len(algorithms)]
		cfg := Default(a, 40, 16)
		cfg.Seed = seed
		cfg.Horizon = 400
		cfg.MaxNeighbors = 12
		if frPick%3 == 0 {
			cfg.FreeRiderFraction = 0.2
			kinds := []attack.Kind{attack.Passive, attack.Collusion, attack.Whitewash, attack.FalsePraise}
			cfg.Attack = attack.Plan{Kind: kinds[int(atkPick)%len(kinds)]}
			if atkPick%2 == 0 {
				cfg.Attack = cfg.Attack.WithLargeView()
			}
		}
		swarm, err := NewSwarm(cfg)
		if err != nil {
			t.Logf("config rejected: %v", err)
			return false
		}
		res, err := swarm.Run()
		if err != nil {
			t.Logf("run failed: %v", err)
			return false
		}

		var raw, credited float64
		for _, p := range res.Peers {
			raw += p.RawDown
			credited += p.Downloaded
			if p.Downloaded > p.RawDown+1e-6 {
				t.Logf("peer %d credited more than received", p.ID)
				return false
			}
			if p.FinishAt >= 0 {
				if math.Abs(p.Downloaded-cfg.FileSize()) > 1e-6 {
					t.Logf("peer %d finished with %g bytes", p.ID, p.Downloaded)
					return false
				}
				if p.BootstrapAt < 0 || p.BootstrapAt > p.FinishAt {
					t.Logf("peer %d finished before bootstrapping", p.ID)
					return false
				}
			}
		}
		if raw > res.TotalUploaded+1e-6 {
			t.Logf("received %g > uploaded %g", raw, res.TotalUploaded)
			return false
		}
		susc := res.Susceptibility()
		if susc < 0 || susc > 1 {
			t.Logf("susceptibility %g out of range", susc)
			return false
		}
		if cfg.FreeRiderFraction == 0 && susc != 0 {
			t.Logf("susceptibility %g without free-riders", susc)
			return false
		}
		for _, name := range []string{SeriesBootstrapped, SeriesCompleted} {
			pts := res.Series[name].Points
			for i := 1; i < len(pts); i++ {
				if pts[i].V < pts[i-1].V-1e-12 {
					t.Logf("series %s decreased", name)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// checkInterestIndex recomputes every interest-index invariant from the
// bitfields alone (the naive ground truth) and reports the first divergence.
// See interest.go for the invariant list. It reads but never mutates swarm
// state, and draws nothing from the RNG, so running it mid-simulation cannot
// perturb the trace it is checking.
func checkInterestIndex(s *Swarm) error {
	n := len(s.peers)
	linkedTo := make([]int, n) // linkedTo[q.id] == p.id+1: q seen in p's adjacency
	for _, p := range s.peers {
		// The holder rows mirror every peer's have, departed peers included.
		for i := 0; i < s.cfg.NumPieces; i++ {
			if got := s.haveT[(i>>6)*n+int(p.id)]>>(uint(i)&63)&1 == 1; got != p.have.Has(i) {
				return fmt.Errorf("peer %d piece %d: holder bit %v, have %v", p.id, i, got, p.have.Has(i))
			}
		}
		if !p.active {
			if len(p.neighbors) != 0 {
				return fmt.Errorf("inactive peer %d still has %d neighbors", p.id, len(p.neighbors))
			}
			continue
		}
		for k, q := range p.neighbors {
			if !q.active {
				return fmt.Errorf("peer %d: neighbor %d is inactive", p.id, q.id)
			}
			if q == p || linkedTo[q.id] == int(p.id)+1 {
				return fmt.Errorf("peer %d: linked to %d more than once", p.id, q.id)
			}
			linkedTo[q.id] = int(p.id) + 1
			r := p.revIdx[k]
			if int(r) >= len(q.neighbors) || q.neighbors[r] != p || int(q.revIdx[r]) != k {
				return fmt.Errorf("peer %d slot %d: reverse index to %d broken", p.id, k, q.id)
			}
			// The holder-row answer, in both directions of the link, against
			// the bitfields it reads.
			if got, want := s.wants(q.id, p.have.Words()), q.have.Needs(p.have); got != want {
				return fmt.Errorf("peer %d slot %d: holder rows say %d wants %v, Needs %v", p.id, k, q.id, got, want)
			}
			if got, want := s.wants(p.id, q.have.Words()), p.have.Needs(q.have); got != want {
				return fmt.Errorf("peer %d slot %d: holder rows say %d wants from %d %v, Needs %v", p.id, k, p.id, q.id, got, want)
			}
			if p.neighborIDs[k] != q.id {
				return fmt.Errorf("peer %d slot %d: stale id %d for %d", p.id, k, p.neighborIDs[k], q.id)
			}
		}
	}
	// The view's wanting list and any-wanting answer against the naive
	// filter: the neighbors that lack a piece p holds, in adjacency order.
	// A fresh view keeps the peers' own scratch untouched.
	for _, p := range s.peers {
		if !p.active {
			continue
		}
		v := &peerView{swarm: s, peer: p}
		list, listed := v.WantingNeighbors()
		wanting, probed := v.AnyWanting()
		if listed != probed || listed != (len(p.distrust) == 0) {
			return fmt.Errorf("peer %d: WantingNeighbors ok %v, AnyWanting ok %v with %d distrusted", p.id, listed, probed, len(p.distrust))
		}
		if !listed {
			continue // the generic filter answers for a distrusting peer
		}
		var naive []incentive.PeerID
		for _, q := range p.neighbors {
			if q.have.Needs(p.have) {
				naive = append(naive, q.id)
			}
		}
		if !slices.Equal(list, naive) {
			return fmt.Errorf("peer %d: WantingNeighbors %v, naive filter %v", p.id, list, naive)
		}
		if wanting != (len(list) > 0) {
			return fmt.Errorf("peer %d: AnyWanting %v with %d wanting neighbors", p.id, wanting, len(list))
		}
	}
	// The rarity index must agree with a per-piece recount over active
	// peers, count by count and level by level: level c holds exactly the
	// pieces held by at most c peers, and every level past the highest
	// count (up to the clamped top) holds them all.
	counts := make([]int, s.cfg.NumPieces)
	for _, p := range s.peers {
		if p.active {
			p.have.ForEach(func(i int) { counts[i]++ })
		}
	}
	for i, c := range counts {
		if got := s.availability.Count(i); got != c {
			return fmt.Errorf("piece %d: availability %d, recount %d", i, got, c)
		}
	}
	for c := 0; c <= len(s.peers)+1; c++ {
		level := s.availability.AtMost(c)
		if level.Size() != len(counts) {
			return fmt.Errorf("level %d spans %d pieces, want %d", c, level.Size(), len(counts))
		}
		for i, n := range counts {
			if level.Has(i) != (n <= c) {
				return fmt.Errorf("level %d: piece %d (recount %d) has bit %v", c, i, n, level.Has(i))
			}
		}
	}
	return nil
}

// indexChecker revalidates the interest and rarity indexes against the
// naive recomputation at every topology change and at a sample of other
// events, so a maintenance bug is caught near the event that introduced it
// rather than smeared into final metrics. It watches the run through the
// swarm's observe seam (watch), and the caller runs one final check once Run
// returns. The leave/abort events are counted between a peer's deactivation
// and its edge teardown, when the adjacency invariant transiently does not
// hold, so departures arm a pending check that runs at the next event
// instead of checking in place.
type indexChecker struct {
	s       *Swarm
	err     error
	events  int
	pending bool
	// onJoin, if set, runs after the check at every join.
	onJoin func()
}

// watch makes c observe s's events.
func (c *indexChecker) watch(s *Swarm) {
	c.s = s
	s.observe = c.observe
}

func (c *indexChecker) check() {
	c.pending = false
	if c.err == nil {
		c.err = checkInterestIndex(c.s)
	}
}

func (c *indexChecker) sampled() {
	if c.pending {
		c.check()
		return
	}
	if c.events++; c.events%17 == 0 {
		c.check()
	}
}

func (c *indexChecker) observe(e probe.Event) {
	switch e {
	case probe.PeerJoin:
		c.check()
		if c.onJoin != nil {
			c.onJoin()
		}
	case probe.PeerLeave, probe.PeerAbort:
		c.pending = true
	case probe.Unchoke, probe.Credit, probe.TransferFinish:
		c.sampled()
	}
}

// TestInterestIndexMatchesNaive drives randomized churn-heavy traces —
// Poisson joins, mid-download crashes, leave-on-complete departs, whitewash
// identity churn, a seeder exit — while an observer cross-checks the
// incremental indexes against naive Bitfield recomputation at every
// topology change. Each trace then replays with the indexes disabled
// (Swarm.indexed cleared, and pickPieceNaive for the piece pick) and must
// produce the identical Result, proving the indexed and naive paths are the
// same simulation.
func TestInterestIndexMatchesNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("property test runs many simulations")
	}
	f := func(seed int64, algoPick, churnPick uint8) bool {
		algorithms := append(algo.All(), algo.PropShare)
		a := algorithms[int(algoPick)%len(algorithms)]
		cfg := Default(a, 35, 16)
		cfg.Seed = seed
		cfg.Horizon = 400
		cfg.MaxNeighbors = 10
		cfg.AbortRate = 0.25
		if churnPick%2 == 0 {
			cfg.SeederExitAt = 150
		}
		if churnPick%3 == 0 {
			cfg.FreeRiderFraction = 0.2
			cfg.Attack = attack.Plan{Kind: attack.Whitewash}
		}
		if churnPick%4 == 0 {
			cfg.Arrival = ArrivalPoisson
			cfg.MeanInterarrival = 2
		}

		swarm, err := NewSwarm(cfg)
		if err != nil {
			t.Logf("config rejected: %v", err)
			return false
		}
		var chk indexChecker
		chk.watch(swarm)
		res, err := swarm.Run()
		if err != nil {
			t.Logf("run failed: %v", err)
			return false
		}
		chk.check()
		if chk.err != nil {
			t.Logf("seed %d %v: index diverged from naive recomputation: %v", seed, a, chk.err)
			return false
		}

		// Replay without the indexes: byte-identical results required.
		naiveSwarm, err := NewSwarm(cfg)
		if err != nil {
			t.Logf("naive config rejected: %v", err)
			return false
		}
		naiveSwarm.indexed = false
		naiveSwarm.refPick = naiveSwarm.pickPieceNaive
		naiveRes, err := naiveSwarm.Run()
		if err != nil {
			t.Logf("naive run failed: %v", err)
			return false
		}
		if !reflect.DeepEqual(res, naiveRes) {
			t.Logf("seed %d %v: indexed and naive runs diverged", seed, a)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestHolderRowsAcrossWords checks the interest answers where a bitfield
// spans several words, the last one partial (150 pieces: 64 + 64 + 22), so a
// column read from the wrong row or a word left out shows; the traces above
// fit one word. The run then replays with the holder rows off and must give
// the identical Result.
func TestHolderRowsAcrossWords(t *testing.T) {
	for _, a := range []algo.Algorithm{algo.BitTorrent, algo.Altruism, algo.TChain} {
		cfg := Default(a, 40, 150)
		cfg.Seed = 11
		cfg.Horizon = 600
		cfg.MaxNeighbors = 8
		cfg.AbortRate = 0.2
		swarm, err := NewSwarm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var chk indexChecker
		chk.watch(swarm)
		res, err := swarm.Run()
		if err != nil {
			t.Fatal(err)
		}
		chk.check()
		if chk.err != nil {
			t.Fatalf("%v: %v", a, chk.err)
		}
		naive, err := NewSwarm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		naive.indexed = false
		naiveRes, err := naive.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, naiveRes) {
			t.Errorf("%v: holder-row and Bitfield.Needs runs diverged", a)
		}
	}
}

// TestLargeViewJoinLinksEachPairOnce runs Figure 6's large-view attack,
// where a joining free-rider links to every active peer and every free-rider
// grabs each newcomer, on top of the capped random links. The interest index
// is rechecked at every join (and at a sample of other events), and it
// refuses a pair linked twice or one-sidedly: connect does not look for an
// existing link, so join must never offer it the same pair again.
func TestLargeViewJoinLinksEachPairOnce(t *testing.T) {
	cfg := Default(algo.BitTorrent, 200, 32)
	cfg.Seed = 7
	cfg.Horizon = 600
	cfg.MaxNeighbors = 10
	cfg.FreeRiderFraction = 0.2
	cfg.Attack = attack.Plan{Kind: attack.Passive}.WithLargeView()
	swarm, err := NewSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count the joins and record the largest free-rider degree seen.
	var joins, maxDegree int
	chk := indexChecker{onJoin: func() {
		joins++
		for _, q := range swarm.peers {
			if q.freeRider {
				maxDegree = max(maxDegree, len(q.neighbors))
			}
		}
	}}
	chk.watch(swarm)
	if _, err := swarm.Run(); err != nil {
		t.Fatal(err)
	}
	chk.check()
	if chk.err != nil {
		t.Fatalf("after %d joins: %v", joins, chk.err)
	}
	if joins != cfg.NumPeers {
		t.Fatalf("checked %d joins, want %d", joins, cfg.NumPeers)
	}
	// The attack must actually have lifted the cap, or the test proves
	// nothing about the large-view loop.
	if maxDegree <= 2*cfg.MaxNeighbors {
		t.Fatalf("largest free-rider degree %d: large view never exceeded 2×MaxNeighbors", maxDegree)
	}
}

// pickPieceNaive is the reference piece pick the naive replay injects:
// enumerate the receiver's missing pieces, drop those in flight, and hand
// the list to RarestFirst.
func (s *Swarm) pickPieceNaive(senderHave *piece.Bitfield, receiver *peer) int {
	var candidates []int
	if senderHave == nil {
		candidates = candidatesFromSeeder(receiver)
	} else {
		candidates = receiver.have.MissingFrom(senderHave)
	}
	filtered := candidates[:0]
	for _, c := range candidates {
		if !receiver.pending.Has(c) {
			filtered = append(filtered, c)
		}
	}
	return s.availability.RarestFirst(s.rng, filtered)
}

// candidatesFromSeeder lists all pieces the receiver still needs.
func candidatesFromSeeder(receiver *peer) []int {
	out := make([]int, 0, receiver.have.Size()-receiver.have.Count())
	for i := 0; i < receiver.have.Size(); i++ {
		if !receiver.have.Has(i) {
			out = append(out, i)
		}
	}
	return out
}
