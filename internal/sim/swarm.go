package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/attack"
	"repro/internal/attest"
	"repro/internal/bandwidth"
	"repro/internal/eventsim"
	"repro/internal/incentive"
	"repro/internal/piece"
	"repro/internal/probe"
	"repro/internal/reputation"
	"repro/internal/stats"
)

// Swarm is one simulation instance. Construct with NewSwarm, execute with
// Run; a Swarm is single-use.
type Swarm struct {
	cfg          Config
	engine       *eventsim.Engine
	rng          *rand.Rand
	peers        []*peer
	ledger       *reputation.Ledger
	availability *piece.Availability
	seeder       *seeder

	arrivedCount   int
	completedCount int // compliant completions
	numCompliant   int

	// The run-wide volumes behind Result's totals and the susceptibility
	// series; each peer's own volumes live on its record.
	totalUploaded     float64 // all link bytes, peers + seeder
	peerUploaded      float64 // link bytes uploaded by peers only
	freeRiderCredited float64 // peer-uploaded bytes credited to free-riders
	series            map[string]*stats.TimeSeries

	// haveT is every peer's holdings transposed: word w of peer id's have
	// is haveT[w*NumPeers+id], set in credit beside have.Set. The interest
	// answers read a neighbor's column by ID, one row per word (8 KB at the
	// paper's 1000 peers), so a scan over a peer's neighbors stays in a few
	// cache-resident pages (see interest.go).
	haveT []uint64
	// adj backs every peer's per-neighbor arrays (see interest.go).
	adj adjacencySlabs
	// actives and incomplete are id-ascending lists of active peers and of
	// active peers still downloading, maintained incrementally on
	// join/depart/completion. They replace the full-population scans in
	// join candidate collection, seeder receiver sampling, witness sampling,
	// and the liveness check, while preserving the exact id-ascending
	// iteration order those scans produced.
	actives    []*peer
	incomplete []*peer

	// indexed enables the holder-row interest answers. NewSwarm sets it; a
	// test clears it on a built swarm to run the reference Bitfield.Needs
	// paths against the same inputs.
	indexed bool
	// refPick, when set by a test, replaces the indexed piece pick with a
	// reference implementation (see pickPiece).
	refPick func(senderHave *piece.Bitfield, receiver *peer) int
	// flightPool and joinScratch recycle the churn-heavy allocations:
	// in-flight transfer records and the join-time candidate slice.
	flightPool  []*flight
	joinScratch []*peer

	// counts is the swarm's own event tally; counter points at it, or at
	// the caller's Counter once Attach swaps one in. observe, set only by
	// in-package tests, sees each event as it is counted.
	counts  probe.Counter
	counter *probe.Counter
	observe func(probe.Event)

	snapshot *AvailabilitySnapshot
	ran      bool
}

// NewSwarm validates cfg and builds the initial event schedule: peer
// arrivals across the flash-crowd window, the seeder, and the metric
// sampler.
func NewSwarm(cfg Config) (*Swarm, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Swarm{
		cfg:          cfg,
		engine:       eventsim.New(),
		rng:          stats.NewRNG(cfg.Seed),
		ledger:       reputation.NewLedger(attest.AcceptAll{}),
		availability: piece.NewAvailability(cfg.NumPieces),
		adj:          adjacencySlabs{per: min(2*cfg.MaxNeighbors, cfg.NumPeers-1)},
		indexed:      true,
		series:       make(map[string]*stats.TimeSeries),
	}
	for _, name := range []string{
		SeriesFairness, SeriesContribution, SeriesBootstrapped,
		SeriesCompleted, SeriesSusceptibility,
	} {
		s.series[name] = stats.NewTimeSeries(name)
	}
	s.counter = &s.counts

	capacities, err := cfg.Bandwidth.Sample(s.rng, cfg.NumPeers)
	if err != nil {
		return nil, err
	}

	numFreeRiders := int(float64(cfg.NumPeers) * cfg.FreeRiderFraction)
	freeRiderIdx := make(map[int]bool, numFreeRiders)
	for _, idx := range stats.SampleWithoutReplacement(s.rng, cfg.NumPeers, numFreeRiders) {
		freeRiderIdx[idx] = true
	}

	arrivals := s.arrivalTimes(cfg)
	s.peers = make([]*peer, cfg.NumPeers)
	// Every peer's have bitfield is a window of one slab: one allocation,
	// not NumPeers.
	w := (cfg.NumPieces + 63) / 64
	haveWords := make([]uint64, cfg.NumPeers*w)
	s.haveT = make([]uint64, cfg.NumPeers*w)
	for i := 0; i < cfg.NumPeers; i++ {
		p := &peer{
			id:          incentive.PeerID(i),
			capacity:    capacities[i],
			alloc:       bandwidth.NewAllocator(capacities[i], cfg.UploadSlots),
			have:        piece.NewBitfieldBacked(haveWords[i*w:(i+1)*w:(i+1)*w], cfg.NumPieces),
			pending:     piece.NewBitfield(cfg.NumPieces),
			distrust:    make(map[incentive.PeerID]bool),
			freeRider:   freeRiderIdx[i],
			arrival:     arrivals[i],
			bootstrapAt: -1,
			finishAt:    -1,
		}
		p.view = &peerView{swarm: s, peer: p}
		p.retryFn = func(float64) {
			p.retry = eventsim.Timer{}
			s.kick(p)
		}
		if p.freeRider {
			p.strategy = attack.NewFreeRider(cfg.Algorithm)
		} else {
			strat, err := incentive.New(cfg.Algorithm, cfg.Incentive, s.ledger)
			if err != nil {
				return nil, fmt.Errorf("sim: building strategy: %w", err)
			}
			p.strategy = strat
		}
		if !p.freeRider {
			s.numCompliant++
		}
		s.peers[i] = p
		s.engine.Schedule(p.arrival, func(float64) { s.join(p) })
	}

	s.seeder = newSeeder(s)
	s.engine.Schedule(0, func(float64) { s.seeder.schedule() })
	s.engine.Schedule(cfg.SampleInterval, s.sampleEvery)
	if cfg.SnapshotAt > 0 {
		s.engine.Schedule(cfg.SnapshotAt, s.takeSnapshot)
	}
	s.scheduleFailures()
	s.scheduleAttacks()
	return s, nil
}

// arrivalTimes draws each peer's join time per the configured process.
func (s *Swarm) arrivalTimes(cfg Config) []float64 {
	out := make([]float64, cfg.NumPeers)
	switch cfg.Arrival {
	case ArrivalPoisson:
		t := 0.0
		for i := range out {
			t += stats.Exponential(s.rng, cfg.MeanInterarrival)
			out[i] = t
		}
	default: // flash crowd
		for i := range out {
			out[i] = s.rng.Float64() * cfg.ArrivalWindow
		}
	}
	return out
}

// lookup resolves a peer ID; the seeder and out-of-range IDs return nil.
func (s *Swarm) lookup(id incentive.PeerID) *peer {
	if id < 0 || int(id) >= len(s.peers) {
		return nil
	}
	return s.peers[id]
}

// join activates a peer at its arrival time and wires its neighborhood.
func (s *Swarm) join(p *peer) {
	p.joined = true
	p.active = true
	s.arrivedCount++
	s.note(probe.PeerJoin)

	// Connect to up to MaxNeighbors random active peers. The candidate
	// slice is swarm-owned scratch: join runs to completion before any
	// other event, so reusing it is safe and keeps churn allocation-free.
	// Copying the id-ascending active list before p is inserted yields the
	// same candidate sequence the old full-population scan produced.
	candidates := append(s.joinScratch[:0], s.actives...)
	s.joinScratch = candidates
	p.adjacency = s.adj.window()
	s.actives = insertPeerByID(s.actives, p)
	s.incomplete = insertPeerByID(s.incomplete, p)
	stats.Shuffle(s.rng, candidates)
	limit := min(s.cfg.MaxNeighbors, len(candidates))
	for _, q := range candidates[:limit] {
		s.connect(p, q)
	}
	// Large-view free-riders connect to everyone: existing large-view
	// attackers grab the newcomer, and a joining large-view attacker grabs
	// every active peer. candidates[:limit] are linked already, so each
	// pair is linked once.
	if s.cfg.FreeRiderFraction > 0 && s.cfg.Attack.LargeView {
		for _, q := range candidates[limit:] {
			if q.freeRider || p.freeRider {
				s.connect(p, q)
			}
		}
	}
	s.kick(p)
	// A newcomer is a fresh upload opportunity for its neighbors.
	for _, q := range p.neighbors {
		s.kick(q)
	}
}

// depart deactivates a peer after completion, per the paper's
// leave-on-completion churn, removing it from all neighborhoods.
func (s *Swarm) depart(p *peer) {
	if !p.active {
		return
	}
	p.active = false
	s.actives = removePeerByID(s.actives, p)
	s.incomplete = removePeerByID(s.incomplete, p)
	s.note(probe.PeerLeave)
	p.retry.Cancel()
	p.retry = eventsim.Timer{}
	s.availability.RemoveBitfield(p.have)
	s.dropEdges(p)
}

// insertPeerByID inserts p into an id-ascending peer list, keeping it
// sorted. Inserting an already-present peer is a no-op.
func insertPeerByID(list []*peer, p *peer) []*peer {
	i, found := slices.BinarySearchFunc(list, p.id, func(q *peer, id incentive.PeerID) int {
		return int(q.id - id)
	})
	if found {
		return list
	}
	return slices.Insert(list, i, p)
}

// removePeerByID removes p from an id-ascending peer list. Removing an
// absent peer is a no-op, so completion and a subsequent leave-on-complete
// depart may both remove from the incomplete list.
func removePeerByID(list []*peer, p *peer) []*peer {
	i, found := slices.BinarySearchFunc(list, p.id, func(q *peer, id incentive.PeerID) int {
		return int(q.id - id)
	})
	if !found {
		return list
	}
	return slices.Delete(list, i, i+1)
}

// Run executes the simulation to the horizon (or until the swarm drains)
// and returns the collected results. It can only be called once.
func (s *Swarm) Run() (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("sim: swarm already ran")
	}
	s.ran = true
	if err := s.engine.Run(s.cfg.Horizon); err != nil && !errors.Is(err, eventsim.ErrStopped) {
		return nil, err
	}
	s.sample(s.engine.Now())
	return s.buildResult(), nil
}

// Attach makes the swarm count its events into c instead of its own
// Counter. It must be called before Run, at most once; a nil c is ignored.
func (s *Swarm) Attach(c *probe.Counter) error {
	if s.ran {
		return fmt.Errorf("sim: cannot attach a counter after Run")
	}
	if c == nil {
		return nil
	}
	if s.counter != &s.counts {
		return fmt.Errorf("sim: a counter is already attached")
	}
	s.counter = c
	return nil
}

// note counts one event and hands it to the test observer, if one is set.
func (s *Swarm) note(e probe.Event) {
	s.counter.Add(e)
	if s.observe != nil {
		s.observe(e)
	}
}

// live reports whether anything can still happen: peers yet to arrive or
// active peers still downloading. O(1) via the maintained incomplete list.
func (s *Swarm) live() bool {
	return s.arrivedCount < len(s.peers) || len(s.incomplete) > 0
}

// scheduleAttacks installs the recurring attack events for the configured
// plan (whitewashing identity resets, false-praise reports).
func (s *Swarm) scheduleAttacks() {
	if s.cfg.FreeRiderFraction <= 0 {
		return
	}
	plan := s.cfg.Attack
	switch plan.Kind {
	case attack.Whitewash:
		var tick func(now float64)
		tick = func(now float64) {
			if !s.live() {
				return
			}
			for _, p := range s.peers {
				if p.freeRider && p.active {
					s.whitewash(p)
				}
			}
			s.engine.After(plan.WhitewashInterval, tick)
		}
		s.engine.Schedule(plan.WhitewashInterval, tick)

	case attack.FalsePraise:
		var tick func(now float64)
		tick = func(now float64) {
			if !s.live() {
				return
			}
			for _, p := range s.peers {
				if p.freeRider && p.active {
					// The colluders' fabricated report is an unsigned claim:
					// the AcceptAll baseline credits it wholesale (Table III's
					// vulnerability), a verifying ledger would refuse it.
					_ = s.ledger.Credit(attack.ForgedClaim(int32(p.id), plan.PraiseBytes))
				}
			}
			s.engine.After(plan.PraiseInterval, tick)
		}
		s.engine.Schedule(plan.PraiseInterval, tick)
	}
}

// scheduleFailures installs the failure-injection events: random
// mid-download peer crashes and the seeder's exit.
func (s *Swarm) scheduleFailures() {
	if s.cfg.AbortRate > 0 {
		var compliant []*peer
		for _, p := range s.peers {
			if !p.freeRider {
				compliant = append(compliant, p)
			}
		}
		count := int(float64(len(compliant)) * s.cfg.AbortRate)
		for _, idx := range stats.SampleWithoutReplacement(s.rng, len(compliant), count) {
			p := compliant[idx]
			// Crash sometime after arrival, within the first half of the
			// horizon — late enough to have participated.
			at := p.arrival + s.rng.Float64()*(s.cfg.Horizon/2-p.arrival)
			if at <= p.arrival {
				at = p.arrival + 1
			}
			s.engine.Schedule(at, func(float64) {
				if p.active && !p.have.Complete() {
					p.aborted = true
					s.numCompliant-- // it can never complete; don't wait for it
					s.note(probe.PeerAbort)
					s.depart(p)
					s.maybeStopCompliantDone()
				}
			})
		}
	}
	if s.cfg.SeederExitAt > 0 {
		s.engine.Schedule(s.cfg.SeederExitAt, func(float64) {
			s.seeder.offline = true
			s.note(probe.SeederExit)
		})
	}
}

// maybeStopCompliantDone re-checks the early-stop condition after the
// compliant population shrinks.
func (s *Swarm) maybeStopCompliantDone() {
	if s.cfg.StopWhenCompliantDone && s.completedCount >= s.numCompliant {
		s.sample(s.engine.Now())
		s.engine.Stop()
	}
}

// whitewash models a free-rider discarding its identity: every compliant
// peer forgets its counters about the attacker and the global ledger entry
// is erased, so deficit and reputation history reset to newcomer state.
func (s *Swarm) whitewash(p *peer) {
	for _, q := range p.neighbors {
		q.strategy.Forget(p.id)
	}
	s.ledger.Reset(int(p.id))
}
