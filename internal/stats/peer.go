package stats

import "math"

// Peer is what one peer got out of a run: the record every per-peer
// statistic below reads. The simulator fills one per peer at the end of a
// run, with byte totals and virtual-time instants; the closed form predicts
// one per user over a unit horizon, where Uploaded and Downloaded are
// equilibrium rates and no instant is predicted (-1).
//
// Every statistic counts compliant peers only: a record with FreeRider set is
// skipped.
type Peer struct {
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

// Fairness is the paper's fairness statistic F (Eq. 3): the mean of
// |log(dᵢ/uᵢ)| over compliant peers, with dᵢ = Downloaded and uᵢ = Uploaded.
// A peer with a non-positive rate on either side is skipped, since its ratio
// is undefined (a Reciprocity peer that never uploads); the result is NaN
// when no peer qualifies, as for pure reciprocity, where the paper says
// fairness "cannot be defined". 0 is perfectly fair.
func Fairness(peers []Peer) float64 {
	return meanOverRates(peers, func(d, u float64) float64 { return math.Abs(math.Log(d / u)) })
}

// FairnessDU is Section V's experimental fairness: the mean of dᵢ/uᵢ over
// compliant peers, with Fairness's zero rule (a peer with a non-positive
// rate on either side is skipped; NaN when none qualifies). 1 is perfectly
// fair; above 1 peers are subsidized beyond their contribution.
func FairnessDU(peers []Peer) float64 {
	return meanOverRates(peers, func(d, u float64) float64 { return d / u })
}

// CompletionFraction is the fraction of compliant peers, aborted ones left
// out, that finished; 0 when there are none.
func CompletionFraction(peers []Peer) float64 {
	total, done := 0, 0
	for _, p := range peers {
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

// MeanDownloadTime is the paper's efficiency metric: the mean of
// FinishAt − Arrival over compliant peers that finished; NaN when none did
// (pure reciprocity).
func MeanDownloadTime(peers []Peer) float64 { return Mean(sinceArrival(peers, finishAt)) }

// DownloadTimeSummary summarizes MeanDownloadTime's sample; N is 0 when no
// compliant peer finished.
func DownloadTimeSummary(peers []Peer) Summary { return Summarize(sinceArrival(peers, finishAt)) }

// MeanBootstrapTime is the mean of BootstrapAt − Arrival, the wait for a
// first credited piece, over compliant peers that bootstrapped; NaN when none
// did.
func MeanBootstrapTime(peers []Peer) float64 { return Mean(sinceArrival(peers, bootstrapAt)) }

// BootstrapTimeSummary summarizes MeanBootstrapTime's sample; N is 0 when no
// compliant peer bootstrapped.
func BootstrapTimeSummary(peers []Peer) Summary { return Summarize(sinceArrival(peers, bootstrapAt)) }

func finishAt(p Peer) float64    { return p.FinishAt }
func bootstrapAt(p Peer) float64 { return p.BootstrapAt }

// sinceArrival returns at(p) − Arrival, in record order, for every compliant
// peer whose instant was reached (at(p) ≥ 0).
func sinceArrival(peers []Peer, at func(Peer) float64) []float64 {
	out := make([]float64, 0, len(peers))
	for _, p := range peers {
		if !p.FreeRider && at(p) >= 0 {
			out = append(out, at(p)-p.Arrival)
		}
	}
	return out
}

// meanOverRates returns the mean of f(Downloaded, Uploaded), summed in record
// order, over compliant peers with both positive; NaN when there are none.
func meanOverRates(peers []Peer, f func(d, u float64) float64) float64 {
	var sum float64
	var n int
	for _, p := range peers {
		if !p.FreeRider && p.Downloaded > 0 && p.Uploaded > 0 {
			sum += f(p.Downloaded, p.Uploaded)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
