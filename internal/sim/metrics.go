package sim

import (
	"math"

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

// PeerStats is the per-peer outcome of a run.
type PeerStats struct {
	ID          int     `json:"id"`
	Capacity    float64 `json:"capacity"`
	FreeRider   bool    `json:"free_rider"`
	Aborted     bool    `json:"aborted"`
	Arrival     float64 `json:"arrival"`
	BootstrapAt float64 `json:"bootstrap_at"` // -1 if never bootstrapped
	FinishAt    float64 `json:"finish_at"`    // -1 if never finished
	Uploaded    float64 `json:"uploaded"`
	Downloaded  float64 `json:"downloaded"` // credited bytes
	RawDown     float64 `json:"raw_down"`   // includes undecryptable ciphertext
}

// Result is everything a run produced.
type Result struct {
	Config            Config                       `json:"config"`
	Peers             []PeerStats                  `json:"peers"`
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
		Peers:             make([]PeerStats, len(s.peers)),
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
		res.Peers[i] = PeerStats{
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

// CompletionFraction returns the fraction of compliant peers that finished.
func (r *Result) CompletionFraction() float64 {
	total, done := 0, 0
	for _, p := range r.Peers {
		if p.FreeRider || p.Aborted {
			continue
		}
		total++
		if p.FinishAt >= 0 {
			done++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(done) / float64(total)
}

// MeanDownloadTime returns the paper's efficiency metric: the mean
// completion time (finish − arrival) over compliant peers that finished.
// NaN when nobody finished (pure reciprocity).
func (r *Result) MeanDownloadTime() float64 {
	times := r.downloadTimes()
	if len(times) == 0 {
		return math.NaN()
	}
	return stats.Mean(times)
}

// DownloadTimeSummary summarizes compliant completion times.
func (r *Result) DownloadTimeSummary() stats.Summary {
	return stats.Summarize(r.downloadTimes())
}

func (r *Result) downloadTimes() []float64 {
	out := make([]float64, 0, len(r.Peers))
	for _, p := range r.Peers {
		if !p.FreeRider && p.FinishAt >= 0 {
			out = append(out, p.FinishAt-p.Arrival)
		}
	}
	return out
}

// FinalFairness returns the end-of-run mean dᵢ/uᵢ over compliant peers with
// positive uploads and downloads (1 is perfectly fair; see SeriesFairness).
func (r *Result) FinalFairness() float64 {
	var sum float64
	var count int
	for _, p := range r.Peers {
		if !p.FreeRider && p.Downloaded > 0 && p.Uploaded > 0 {
			sum += p.Downloaded / p.Uploaded
			count++
		}
	}
	if count == 0 {
		return math.NaN()
	}
	return sum / float64(count)
}

// LogFairness returns the paper's analytical fairness statistic F (Eq. 3)
// over compliant peers' cumulative rates.
func (r *Result) LogFairness() float64 {
	var up, down []float64
	for _, p := range r.Peers {
		if !p.FreeRider {
			up = append(up, p.Uploaded)
			down = append(down, p.Downloaded)
		}
	}
	return stats.LogFairness(down, up)
}

// Susceptibility returns the fraction of peer-uploaded bytes credited to
// free-riders, the paper's Figure 5a/6a metric.
func (r *Result) Susceptibility() float64 {
	if r.PeerUploaded == 0 {
		return 0
	}
	return r.FreeRiderCredited / r.PeerUploaded
}

// MeanBootstrapTime returns the mean time from arrival to first credited
// piece over compliant peers that bootstrapped; NaN if none did.
func (r *Result) MeanBootstrapTime() float64 {
	var times []float64
	for _, p := range r.Peers {
		if !p.FreeRider && p.BootstrapAt >= 0 {
			times = append(times, p.BootstrapAt-p.Arrival)
		}
	}
	if len(times) == 0 {
		return math.NaN()
	}
	return stats.Mean(times)
}

// BootstrapFraction returns the fraction of compliant peers that received
// at least one piece by time t (step-interpolated from the series).
func (r *Result) BootstrapFraction(t float64) float64 {
	return r.Series[SeriesBootstrapped].At(t, 0)
}
