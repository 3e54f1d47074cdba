package sim

import (
	"repro/internal/probe"
	"repro/internal/stats"
)

// Series names recorded during a run.
const (
	// SeriesFairness is the experimental fairness metric plotted in
	// Figures 4b/5c/6c: the mean download-to-upload ratio Σ(dᵢ/uᵢ)/N over
	// active compliant peers. 1 is perfectly fair; values far above 1 mean
	// peers are subsidized beyond their contribution (altruism), values
	// below 1 mean compliant peers are being exploited (free-riding).
	// (The paper's Section V preamble prints the reciprocal Σ(uᵢ/dᵢ)/N,
	// but that average is ≈1 for *every* mechanism by construction; the
	// d/u form reproduces all of the paper's qualitative fairness claims —
	// see EXPERIMENTS.md. The u/d form is recorded as
	// SeriesContribution.)
	SeriesFairness = "fairness"
	// SeriesContribution is the literal Σ(uᵢ/dᵢ)/N average.
	SeriesContribution = "contribution"
	// SeriesBootstrapped is the fraction of arrived peers holding at least
	// one piece (Figure 4c).
	SeriesBootstrapped = "bootstrapped"
	// SeriesCompleted is the fraction of peers that finished downloading.
	SeriesCompleted = "completed"
	// SeriesSusceptibility is the cumulative fraction of peer-uploaded
	// bytes credited to free-riders (Figures 5a, 6a). Seeder bytes are
	// excluded from both numerator and denominator: the metric measures
	// how much of the users' contributed bandwidth the attackers captured.
	SeriesSusceptibility = "susceptibility"
)

// sample appends one point to each series from the peers' own records and
// counts the instant.
func (s *Swarm) sample(now float64) {
	var fairSum, contribSum float64
	var fairCount, contribCount int
	bootstrapped := 0
	for _, p := range s.peers {
		if !p.joined {
			continue
		}
		if p.bootstrapAt >= 0 {
			bootstrapped++
		}
		if !p.freeRider && p.active {
			if p.uploaded > 0 && p.creditedDown > 0 {
				fairSum += p.creditedDown / p.uploaded
				fairCount++
			}
			if p.creditedDown > 0 {
				contribSum += p.uploaded / p.creditedDown
				contribCount++
			}
		}
	}
	if fairCount > 0 {
		s.series[SeriesFairness].Add(now, fairSum/float64(fairCount))
	}
	if contribCount > 0 {
		s.series[SeriesContribution].Add(now, contribSum/float64(contribCount))
	}
	// Fraction of the full population, matching the paper's z(t)/N.
	n := float64(len(s.peers))
	s.series[SeriesBootstrapped].Add(now, float64(bootstrapped)/n)
	s.series[SeriesCompleted].Add(now, float64(s.completedCount)/n)
	if s.peerUploaded > 0 {
		s.series[SeriesSusceptibility].Add(now, s.freeRiderCredited/s.peerUploaded)
	} else {
		s.series[SeriesSusceptibility].Add(now, 0)
	}
	s.note(probe.Sample)
}

// sampleEvery is the recurring metrics event.
func (s *Swarm) sampleEvery(now float64) {
	s.sample(now)
	if s.live() {
		s.engine.After(s.cfg.SampleInterval, s.sampleEvery)
	}
}

// Result is everything a run produced.
type Result struct {
	Config            Config                       `json:"config"`
	Peers             []stats.Peer                 `json:"peers"`
	Series            map[string]*stats.TimeSeries `json:"series"`
	TotalUploaded     float64                      `json:"total_uploaded"`
	PeerUploaded      float64                      `json:"peer_uploaded"`
	SeederUploaded    float64                      `json:"seeder_uploaded"`
	FreeRiderCredited float64                      `json:"free_rider_credited"`
	Duration          float64                      `json:"duration"`
	EventsProcessed   uint64                       `json:"events_processed"`

	snapshot *AvailabilitySnapshot
}

func (s *Swarm) buildResult() *Result {
	res := &Result{
		Config:            s.cfg,
		Peers:             make([]stats.Peer, len(s.peers)),
		Series:            s.series,
		TotalUploaded:     s.totalUploaded,
		PeerUploaded:      s.peerUploaded,
		SeederUploaded:    s.seeder.uploaded,
		FreeRiderCredited: s.freeRiderCredited,
		Duration:          s.engine.Now(),
		EventsProcessed:   s.engine.Processed(),
		snapshot:          s.snapshot,
	}
	for i, p := range s.peers {
		res.Peers[i] = stats.Peer{
			ID:          int(p.id),
			Capacity:    p.capacity,
			FreeRider:   p.freeRider,
			Aborted:     p.aborted,
			Arrival:     p.arrival,
			BootstrapAt: p.bootstrapAt,
			FinishAt:    p.finishAt,
			Uploaded:    p.uploaded,
			Downloaded:  p.creditedDown,
			RawDown:     p.rawDown,
		}
	}
	return res
}

// CompletionFraction is stats.CompletionFraction of the run's records.
func (r *Result) CompletionFraction() float64 { return stats.CompletionFraction(r.Peers) }

// Susceptibility returns the fraction of peer-uploaded bytes credited to
// free-riders, the paper's Figure 5a/6a metric.
func (r *Result) Susceptibility() float64 {
	if r.PeerUploaded == 0 {
		return 0
	}
	return r.FreeRiderCredited / r.PeerUploaded
}

// BootstrapFraction returns the fraction of compliant peers that received
// at least one piece by time t (step-interpolated from the series).
func (r *Result) BootstrapFraction(t float64) float64 {
	return r.Series[SeriesBootstrapped].At(t, 0)
}
