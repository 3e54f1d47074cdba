package analysis

import (
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/stats"
)

func mustScenario(t *testing.T, capacities []float64, seeder, aBT, aR float64, nBT int) *Scenario {
	t.Helper()
	s, err := NewScenario(capacities, seeder, aBT, aR, nBT)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fourClass returns a 40-user capacity vector with four equal tiers.
func fourClass() []float64 {
	caps := make([]float64, 0, 40)
	for _, rate := range []float64{8, 4, 2, 1} {
		for i := 0; i < 10; i++ {
			caps = append(caps, rate)
		}
	}
	return caps
}

func TestNewScenarioValidation(t *testing.T) {
	cases := []struct {
		caps          []float64
		seeder, bt, r float64
		nBT           int
	}{
		{[]float64{1}, 1, 0.2, 0.1, 1},     // too few users
		{[]float64{1, 0}, 1, 0.2, 0.1, 1},  // zero capacity
		{[]float64{1, -1}, 1, 0.2, 0.1, 1}, // negative capacity
		{[]float64{1, 1}, -1, 0.2, 0.1, 1}, // negative seeder
		{[]float64{1, 1}, 1, 1.5, 0.1, 1},  // alphaBT > 1
		{[]float64{1, 1}, 1, 0.2, -0.1, 1}, // alphaR < 0
		{[]float64{1, 1}, 1, 0.2, 0.1, 0},  // nBT < 1
		{[]float64{1, 1}, 1, 0.2, 0.1, 2},  // nBT >= N
		{[]float64{1, math.NaN()}, 1, 0.2, 0.1, 1},
	}
	for i, c := range cases {
		if _, err := NewScenario(c.caps, c.seeder, c.bt, c.r, c.nBT); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestNewScenarioSortsDescending(t *testing.T) {
	s := mustScenario(t, []float64{1, 5, 3}, 0, 0.2, 0.1, 1)
	want := []float64{5, 3, 1}
	for i, w := range want {
		if s.Capacities[i] != w {
			t.Fatalf("Capacities = %v", s.Capacities)
		}
	}
}

func TestLemma2UploadRates(t *testing.T) {
	s := mustScenario(t, fourClass(), 10, 0.2, 0.1, 4)
	for _, a := range algo.All() {
		u := s.UploadRates(a)
		for i, ui := range u {
			want := s.Capacities[i]
			if a == algo.Reciprocity {
				want = 0
			}
			if ui != want {
				t.Errorf("%v upload[%d] = %g, want %g", a, i, ui, want)
			}
		}
	}
}

func TestTableIReciprocityZeroUtilization(t *testing.T) {
	s := mustScenario(t, fourClass(), 10, 0.2, 0.1, 4)
	share := s.SeederRate / float64(s.N())
	for i, d := range s.DownloadRates(algo.Reciprocity) {
		if math.Abs(d-share) > 1e-12 {
			t.Errorf("reciprocity d[%d] = %g, want seeder share %g", i, d, share)
		}
	}
}

func TestTableITChainFairTorrentEqualCapacity(t *testing.T) {
	s := mustScenario(t, fourClass(), 10, 0.2, 0.1, 4)
	share := s.SeederRate / float64(s.N())
	for _, a := range []algo.Algorithm{algo.TChain, algo.FairTorrent} {
		for i, d := range s.DownloadRates(a) {
			want := s.Capacities[i] + share
			if math.Abs(d-want) > 1e-9 {
				t.Errorf("%v d[%d] = %g, want %g", a, i, d, want)
			}
		}
	}
}

func TestTableIAltruismEqualizes(t *testing.T) {
	s := mustScenario(t, fourClass(), 0, 0.2, 0.1, 4)
	d := s.DownloadRates(algo.Altruism)
	total := s.TotalCapacity()
	for i, di := range d {
		want := (total - s.Capacities[i]) / float64(s.N()-1)
		if math.Abs(di-want) > 1e-9 {
			t.Errorf("altruism d[%d] = %g, want %g", i, di, want)
		}
	}
	// Lowest-capacity user downloads the most under altruism.
	if d[0] >= d[len(d)-1] {
		t.Error("altruism should favor low-capacity users")
	}
}

func TestTableIConservation(t *testing.T) {
	// Eq. 1: total download equals total upload + seeder, for every
	// algorithm whose rates come from Table I.
	s := mustScenario(t, fourClass(), 10, 0.2, 0.1, 4)
	for _, a := range algo.All() {
		var totalD, totalU float64
		for _, d := range s.DownloadRates(a) {
			totalD += d
		}
		for _, u := range s.UploadRates(a) {
			totalU += u
		}
		want := totalU + s.SeederRate
		// BitTorrent's cluster approximation and reputation's
		// Σ U_j/(ΣU−U_j) ≈ 1 approximation leave small slack.
		tol := 1e-9 * want
		if a == algo.BitTorrent || a == algo.Reputation {
			tol = 0.05 * want
		}
		if math.Abs(totalD-want) > tol {
			t.Errorf("%v: Σd = %g, Σu+u_S = %g", a, totalD, want)
		}
	}
}

func TestCorollary1FairnessOptimal(t *testing.T) {
	s := mustScenario(t, fourClass(), 0.4, 0.2, 0.1, 4)
	for _, a := range []algo.Algorithm{algo.TChain, algo.FairTorrent} {
		_, f := s.Evaluate(a)
		// d = U + u_S/N vs u = U: F is tiny but not exactly zero when a
		// seeder is present; with no seeder it is exactly zero.
		if f > 0.02 {
			t.Errorf("%v F = %g, want ~0", a, f)
		}
	}
	noSeed := mustScenario(t, fourClass(), 0, 0.2, 0.1, 4)
	for _, a := range []algo.Algorithm{algo.TChain, algo.FairTorrent} {
		_, f := noSeed.Evaluate(a)
		if f != 0 {
			t.Errorf("%v F = %g without seeder, want 0", a, f)
		}
	}
}

func TestCorollary1EfficiencyOrdering(t *testing.T) {
	// With similar capacities inside clusters, Corollary 1's ranking:
	// altruism < BitTorrent, reputation < T-Chain = FairTorrent (< is more
	// efficient, i.e., lower E), and nobody beats the Lemma 1 optimum.
	s := mustScenario(t, fourClass(), 0, 0.2, 0.1, 4)
	e := make(map[algo.Algorithm]float64, 6)
	for _, a := range algo.All() {
		e[a], _ = s.Evaluate(a)
	}
	opt := s.OptimalEfficiency()
	for _, a := range []algo.Algorithm{algo.TChain, algo.BitTorrent, algo.FairTorrent, algo.Reputation, algo.Altruism} {
		if e[a] < opt-1e-12 {
			t.Errorf("%v E = %g beats optimum %g", a, e[a], opt)
		}
	}
	if !(e[algo.Altruism] <= e[algo.BitTorrent] && e[algo.BitTorrent] <= e[algo.TChain]) {
		t.Errorf("efficiency ordering violated: altruism %g, BT %g, TChain %g",
			e[algo.Altruism], e[algo.BitTorrent], e[algo.TChain])
	}
	if !(e[algo.Reputation] <= e[algo.TChain]+1e-9) {
		t.Errorf("reputation %g should be at least as efficient as T-Chain %g",
			e[algo.Reputation], e[algo.TChain])
	}
	if math.Abs(e[algo.TChain]-e[algo.FairTorrent]) > 1e-12 {
		t.Errorf("T-Chain %g and FairTorrent %g should tie", e[algo.TChain], e[algo.FairTorrent])
	}
	if !math.IsInf(e[algo.Reciprocity], 1) {
		t.Errorf("reciprocity E = %g, want +Inf without seeder", e[algo.Reciprocity])
	}
}

func TestFigure2FairnessOrdering(t *testing.T) {
	// Altruism least fair; BitTorrent between the perfectly fair hybrids
	// and altruism; reciprocity undefined.
	s := mustScenario(t, fourClass(), 0, 0.2, 0.1, 4)
	f := make(map[algo.Algorithm]float64, 6)
	for _, a := range algo.All() {
		_, f[a] = s.Evaluate(a)
	}
	if !math.IsNaN(f[algo.Reciprocity]) {
		t.Errorf("reciprocity F = %g, want NaN", f[algo.Reciprocity])
	}
	if !(f[algo.TChain] <= f[algo.BitTorrent] && f[algo.BitTorrent] <= f[algo.Altruism]) {
		t.Errorf("fairness ordering violated: TC %g, BT %g, Alt %g",
			f[algo.TChain], f[algo.BitTorrent], f[algo.Altruism])
	}
	if f[algo.Altruism] <= 0 {
		t.Error("altruism should be measurably unfair with heterogeneous capacities")
	}
}

func TestUniformCapacitiesEverythingFair(t *testing.T) {
	caps := make([]float64, 20)
	for i := range caps {
		caps[i] = 3
	}
	s := mustScenario(t, caps, 0, 0.2, 0.1, 4)
	for _, a := range []algo.Algorithm{algo.TChain, algo.BitTorrent, algo.FairTorrent, algo.Reputation, algo.Altruism} {
		_, f := s.Evaluate(a)
		if f > 0.05 {
			t.Errorf("%v F = %g with uniform capacities, want ~0", a, f)
		}
	}
}

func TestLemma1Optimum(t *testing.T) {
	s := mustScenario(t, []float64{4, 2, 2}, 3, 0.2, 0.1, 1)
	wantD := (4.0+2+2)/3 + 3.0/3
	if got := s.OptimalDownloadRate(); math.Abs(got-wantD) > 1e-12 {
		t.Errorf("d* = %g, want %g", got, wantD)
	}
	if got := s.OptimalEfficiency(); math.Abs(got-1/wantD) > 1e-12 {
		t.Errorf("E* = %g, want %g", got, 1/wantD)
	}
}

func TestEfficiencyDegenerate(t *testing.T) {
	if got := Efficiency([]stats.Peer{{Downloaded: 0}, {Downloaded: 1}}); !math.IsInf(got, 1) {
		t.Errorf("zero rate E = %g, want +Inf", got)
	}
	if got := Efficiency([]stats.Peer{{Downloaded: 2}, {Downloaded: 2}}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("E = %g, want 0.5", got)
	}
}

// TestFairnessDegenerate checks Evaluate's F (Eq. 3 through stats.Fairness
// over Records) where it is undefined or partly so: no records and no
// positive upload are NaN, and a record with a zero rate is skipped rather
// than making F NaN. Records cannot differ in length from themselves, so the
// old length-mismatch case has no counterpart.
func TestFairnessDegenerate(t *testing.T) {
	if got := stats.Fairness(nil); !math.IsNaN(got) {
		t.Errorf("empty F = %g, want NaN", got)
	}
	if got := stats.Fairness([]stats.Peer{{Downloaded: 1, Uploaded: 0}, {Downloaded: 1, Uploaded: 0}}); !math.IsNaN(got) {
		t.Errorf("all-zero-upload F = %g, want NaN", got)
	}
	if got := stats.Fairness([]stats.Peer{{Downloaded: 1, Uploaded: 1}, {Downloaded: 1, Uploaded: 0}}); got != 0 {
		t.Errorf("zero upload skipped F = %g, want 0", got)
	}
	// Reciprocity with a seeder: every peer downloads the seeder's share but
	// uploads nothing, so no record qualifies.
	s := mustScenario(t, fourClass(), 2, 0.2, 0.1, 4)
	if _, f := s.Evaluate(algo.Reciprocity); !math.IsNaN(f) {
		t.Errorf("reciprocity with seeder F = %g, want NaN", f)
	}
}

func TestRecordsCarryEquilibriumRates(t *testing.T) {
	s := mustScenario(t, fourClass(), 2, 0.2, 0.1, 4)
	for _, a := range algo.All() {
		d, u := s.DownloadRates(a), s.UploadRates(a)
		for i, p := range s.Records(a) {
			if p.ID != i || p.Capacity != s.Capacities[i] || p.Downloaded != d[i] || p.Uploaded != u[i] ||
				p.FreeRider || p.BootstrapAt != -1 || p.FinishAt != -1 {
				t.Fatalf("%v record %d = %+v, want capacity %g, d %g, u %g, no instants", a, i, p, s.Capacities[i], d[i], u[i])
			}
		}
	}
}

func TestDownloadRatesUnknownAlgorithm(t *testing.T) {
	s := mustScenario(t, []float64{1, 1}, 0, 0.2, 0.1, 1)
	for _, d := range s.DownloadRates(algo.Algorithm(99)) {
		if d != 0 {
			t.Error("unknown algorithm should yield zero rates")
		}
	}
}
