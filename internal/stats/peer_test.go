package stats

import (
	"math"
	"testing"
)

// TestPeerStatistics checks every per-peer statistic on hand-built records,
// the zero rule of Eq. 3 and the free-rider exclusion included. NaN means
// undefined and must match NaN.
func TestPeerStatistics(t *testing.T) {
	ln2 := math.Log(2)
	cases := []struct {
		name  string
		peers []Peer
		// F, d/u, completion, mean download and bootstrap time, and the
		// two summaries' sample sizes and medians.
		f, du, done, dl, boot float64
		dlN, bootN            int
		dlMedian, bootMedian  float64
	}{
		{
			name: "empty",
			f:    math.NaN(), du: math.NaN(), dl: math.NaN(), boot: math.NaN(),
		},
		{
			name: "every rate zero",
			peers: []Peer{
				{BootstrapAt: -1, FinishAt: -1},
				{BootstrapAt: -1, FinishAt: -1},
			},
			f: math.NaN(), du: math.NaN(), dl: math.NaN(), boot: math.NaN(),
		},
		{
			// The simulator's case: a compliant peer that downloaded but
			// never uploaded has no ratio and is left out, not made NaN.
			name: "compliant peer with zero upload skipped",
			peers: []Peer{
				{Downloaded: 2, Uploaded: 1, BootstrapAt: -1, FinishAt: -1},
				{Downloaded: 4, Uploaded: 0, BootstrapAt: -1, FinishAt: -1},
			},
			f: ln2, du: 2, dl: math.NaN(), boot: math.NaN(),
		},
		{
			name: "unit rates, one upload zero",
			peers: []Peer{
				{Downloaded: 1, Uploaded: 1, BootstrapAt: -1, FinishAt: -1},
				{Downloaded: 1, Uploaded: 0, BootstrapAt: -1, FinishAt: -1},
			},
			f: 0, du: 1, dl: math.NaN(), boot: math.NaN(),
		},
		{
			name: "free-riders excluded",
			peers: []Peer{
				{Downloaded: 2, Uploaded: 2, Arrival: 1, BootstrapAt: 2, FinishAt: 5},
				{FreeRider: true, Downloaded: 8, Uploaded: 1, BootstrapAt: 1, FinishAt: 3},
				{FreeRider: true, BootstrapAt: -1, FinishAt: -1},
			},
			f: 0, du: 1, done: 1, dl: 4, boot: 1,
			dlN: 1, bootN: 1, dlMedian: 4, bootMedian: 1,
		},
		{
			// Completion leaves aborted peers out of its denominator; the
			// times and ratios keep them.
			name: "mixed outcomes",
			peers: []Peer{
				{Downloaded: 4, Uploaded: 2, Arrival: 0, BootstrapAt: 2, FinishAt: 10},
				{Downloaded: 1, Uploaded: 2, Arrival: 1, BootstrapAt: 4, FinishAt: 7},
				{Arrival: 2, BootstrapAt: -1, FinishAt: -1},
				{Aborted: true, Downloaded: 1, Uploaded: 1, BootstrapAt: 3, FinishAt: -1},
				{FreeRider: true, Downloaded: 4, BootstrapAt: 1, FinishAt: 4},
			},
			f: 2 * ln2 / 3, du: 3.5 / 3, done: 2.0 / 3, dl: 8, boot: 8.0 / 3,
			dlN: 2, bootN: 3, dlMedian: 8, bootMedian: 3,
		},
	}
	same := func(got, want float64) bool {
		if math.IsNaN(want) {
			return math.IsNaN(got)
		}
		return almostEqual(got, want, 1e-12)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dl, boot := DownloadTimeSummary(c.peers), BootstrapTimeSummary(c.peers)
			for _, g := range []struct {
				stat      string
				got, want float64
			}{
				{"Fairness", Fairness(c.peers), c.f},
				{"FairnessDU", FairnessDU(c.peers), c.du},
				{"CompletionFraction", CompletionFraction(c.peers), c.done},
				{"MeanDownloadTime", MeanDownloadTime(c.peers), c.dl},
				{"MeanBootstrapTime", MeanBootstrapTime(c.peers), c.boot},
				{"DownloadTimeSummary.N", float64(dl.N), float64(c.dlN)},
				{"BootstrapTimeSummary.N", float64(boot.N), float64(c.bootN)},
				{"DownloadTimeSummary.Median", dl.Median, c.dlMedian},
				{"BootstrapTimeSummary.Median", boot.Median, c.bootMedian},
			} {
				if !same(g.got, g.want) {
					t.Errorf("%s = %g, want %g", g.stat, g.got, g.want)
				}
			}
		})
	}
}

// TestLogFairness checks Eq. 3's F (Fairness) on records built from rate
// pairs: equal rates are 0, d = 2u is ln 2, a zero rate is left out, and no
// qualifying record is NaN.
func TestLogFairness(t *testing.T) {
	rec := func(d, u []float64) []Peer {
		out := make([]Peer, len(d))
		for i := range d {
			out[i] = Peer{Downloaded: d[i], Uploaded: u[i], BootstrapAt: -1, FinishAt: -1}
		}
		return out
	}
	if got := Fairness(rec([]float64{2, 3}, []float64{2, 3})); got != 0 {
		t.Errorf("fair F = %g, want 0", got)
	}
	if got := Fairness(rec([]float64{2, 4}, []float64{1, 2})); !almostEqual(got, math.Log(2), 1e-12) {
		t.Errorf("F = %g, want ln2", got)
	}
	if got := Fairness(rec([]float64{0, 4}, []float64{1, 2})); !almostEqual(got, math.Log(2), 1e-12) {
		t.Errorf("F with zero d = %g, want ln2", got)
	}
	if got := Fairness(rec([]float64{0}, []float64{0})); !math.IsNaN(got) {
		t.Errorf("all-zero F = %g, want NaN", got)
	}
}

// TestRatioFairness checks Section V's ratio mean (FairnessDU, dᵢ/uᵢ): equal
// rates are 1, a free-rider or a peer with a zero rate is left out, and the
// mean runs over the rest in record order.
func TestRatioFairness(t *testing.T) {
	if got := FairnessDU([]Peer{{Downloaded: 3, Uploaded: 3}, {Downloaded: 5, Uploaded: 5}}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("fair ratio = %g, want 1", got)
	}
	peers := []Peer{
		{Downloaded: 2, Uploaded: 4},
		{Downloaded: 4, Uploaded: 2},
		{Downloaded: 4, Uploaded: 0},
		{FreeRider: true, Downloaded: 8, Uploaded: 1},
	}
	if got := FairnessDU(peers); !almostEqual(got, 1.25, 1e-12) {
		t.Errorf("ratio = %g, want 1.25", got)
	}
	if got := FairnessDU([]Peer{{Downloaded: 4}}); !math.IsNaN(got) {
		t.Errorf("no-upload ratio = %g, want NaN", got)
	}
}
