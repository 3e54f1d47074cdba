package sim

import (
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/attack"
	"repro/internal/stats"
)

// testConfig returns a small, fast configuration with the paper's shape.
func testConfig(a algo.Algorithm) Config {
	cfg := Default(a, 100, 48)
	cfg.Seed = 7
	cfg.Horizon = 700
	return cfg
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	sw, err := NewSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.Algorithm = algo.Algorithm(99) },
		func(c *Config) { c.NumPeers = 1 },
		func(c *Config) { c.NumPieces = 0 },
		func(c *Config) { c.PieceSize = 0 },
		func(c *Config) { c.ArrivalWindow = -1 },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.SampleInterval = 0 },
		func(c *Config) { c.MaxNeighbors = 0 },
		func(c *Config) { c.UploadSlots = 0 },
		func(c *Config) { c.SeederRate = -1 },
		func(c *Config) { c.Bandwidth.Classes = nil },
		func(c *Config) { c.Incentive.AlphaBT = 5 },
		func(c *Config) { c.FreeRiderFraction = -0.1 },
		func(c *Config) { c.FreeRiderFraction = 1 },
		func(c *Config) { c.PollInterval = 0 },
		func(c *Config) { c.FreeRiderFraction = 0.2; c.Attack.Kind = attack.Kind(42) },
	}
	for i, mod := range mods {
		cfg := testConfig(algo.Altruism)
		mod(&cfg)
		if _, err := NewSwarm(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSwarmSingleUse(t *testing.T) {
	cfg := testConfig(algo.Altruism)
	sw, err := NewSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Run(); err == nil {
		t.Error("second Run accepted")
	}
}

func TestDeterminism(t *testing.T) {
	for _, a := range []algo.Algorithm{algo.Altruism, algo.TChain, algo.FairTorrent} {
		cfg := testConfig(a)
		cfg.NumPeers = 60
		cfg.NumPieces = 24
		r1 := mustRun(t, cfg)
		r2 := mustRun(t, cfg)
		if r1.EventsProcessed != r2.EventsProcessed || r1.Duration != r2.Duration {
			t.Errorf("%v: runs diverged: %d/%g vs %d/%g", a,
				r1.EventsProcessed, r1.Duration, r2.EventsProcessed, r2.Duration)
		}
		for i := range r1.Peers {
			if r1.Peers[i] != r2.Peers[i] {
				t.Fatalf("%v: peer %d diverged: %+v vs %+v", a, i, r1.Peers[i], r2.Peers[i])
			}
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := testConfig(algo.Altruism)
	r1 := mustRun(t, cfg)
	cfg.Seed = 12345
	r2 := mustRun(t, cfg)
	if r1.EventsProcessed == r2.EventsProcessed && r1.Duration == r2.Duration {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestAllCompliantPeersComplete(t *testing.T) {
	for _, a := range []algo.Algorithm{algo.TChain, algo.BitTorrent, algo.FairTorrent, algo.Reputation, algo.Altruism} {
		res := mustRun(t, testConfig(a))
		if got := res.CompletionFraction(); got != 1 {
			t.Errorf("%v completion = %g, want 1", a, got)
		}
		if math.IsNaN(stats.MeanDownloadTime(res.Peers)) {
			t.Errorf("%v has no mean download time", a)
		}
	}
}

// TestLemma2ReciprocityStalls checks the paper's core negative result:
// pure reciprocity deadlocks — peers never upload to each other, and only
// the seeder trickles data in.
func TestLemma2ReciprocityStalls(t *testing.T) {
	res := mustRun(t, testConfig(algo.Reciprocity))
	if res.PeerUploaded != 0 {
		t.Errorf("reciprocity peers uploaded %g bytes, want 0", res.PeerUploaded)
	}
	if got := res.CompletionFraction(); got != 0 {
		t.Errorf("reciprocity completion = %g within horizon, want 0", got)
	}
	if res.SeederUploaded == 0 {
		t.Error("seeder idle in reciprocity run")
	}
}

// TestFigure4aEfficiencyOrdering checks the compliant-swarm efficiency
// shape: altruism fastest; T-Chain/BitTorrent/FairTorrent/reputation
// comparable (within 2x of altruism); reciprocity never finishes.
func TestFigure4aEfficiencyOrdering(t *testing.T) {
	times := make(map[algo.Algorithm]float64, 6)
	for _, a := range []algo.Algorithm{algo.TChain, algo.BitTorrent, algo.FairTorrent, algo.Reputation, algo.Altruism} {
		times[a] = stats.MeanDownloadTime(mustRun(t, testConfig(a)).Peers)
	}
	alt := times[algo.Altruism]
	for a, dl := range times {
		if dl < alt-1e-9 {
			t.Errorf("%v (%.1fs) finished faster than altruism (%.1fs)", a, dl, alt)
		}
		if dl > 2*alt {
			t.Errorf("%v (%.1fs) more than 2x slower than altruism (%.1fs)", a, dl, alt)
		}
	}
}

// TestFigure4bFairnessOrdering checks the fairness shape via the paper's
// Eq. 3 statistic over cumulative volumes: the hybrids are much fairer than
// altruism.
func TestFigure4bFairnessOrdering(t *testing.T) {
	f := make(map[algo.Algorithm]float64, 6)
	for _, a := range []algo.Algorithm{algo.TChain, algo.BitTorrent, algo.FairTorrent, algo.Reputation, algo.Altruism} {
		f[a] = stats.Fairness(mustRun(t, testConfig(a)).Peers)
	}
	for _, a := range []algo.Algorithm{algo.TChain, algo.BitTorrent, algo.FairTorrent} {
		if f[a] >= f[algo.Altruism] {
			t.Errorf("%v F = %.3f not fairer than altruism %.3f", a, f[a], f[algo.Altruism])
		}
	}
}

// TestFigure4cBootstrapOrdering checks Proposition 4's ordering: altruism,
// FairTorrent, and T-Chain bootstrap fastest; then BitTorrent; then
// reputation; reciprocity (seeder-only) slowest.
func TestFigure4cBootstrapOrdering(t *testing.T) {
	boot := make(map[algo.Algorithm]float64, 6)
	for _, a := range algo.All() {
		boot[a] = stats.MeanBootstrapTime(mustRun(t, testConfig(a)).Peers)
	}
	fastest := []algo.Algorithm{algo.Altruism, algo.FairTorrent, algo.TChain}
	for _, a := range fastest {
		if boot[a] >= boot[algo.BitTorrent] {
			t.Errorf("%v bootstrap %.1fs not faster than BitTorrent %.1fs", a, boot[a], boot[algo.BitTorrent])
		}
	}
	if boot[algo.BitTorrent] >= boot[algo.Reciprocity] {
		t.Errorf("BitTorrent %.1fs not faster than reciprocity %.1fs",
			boot[algo.BitTorrent], boot[algo.Reciprocity])
	}
	if boot[algo.Reputation] >= boot[algo.Reciprocity] {
		t.Errorf("reputation %.1fs not faster than reciprocity %.1fs",
			boot[algo.Reputation], boot[algo.Reciprocity])
	}
}

func withFreeRiders(a algo.Algorithm, largeView bool) Config {
	cfg := testConfig(a)
	cfg.FreeRiderFraction = 0.2
	cfg.Attack = attack.MostEffective(a)
	if largeView {
		cfg.Attack = cfg.Attack.WithLargeView()
	}
	return cfg
}

// TestFigure5aSusceptibilityOrdering checks Table III's shape under 20%
// targeted free-riders: altruism most susceptible, then FairTorrent, then
// BitTorrent; T-Chain and reciprocity near zero.
func TestFigure5aSusceptibilityOrdering(t *testing.T) {
	susc := make(map[algo.Algorithm]float64, 6)
	for _, a := range algo.All() {
		susc[a] = mustRun(t, withFreeRiders(a, false)).Susceptibility()
	}
	if susc[algo.Reciprocity] != 0 {
		t.Errorf("reciprocity susceptibility = %g, want 0", susc[algo.Reciprocity])
	}
	if susc[algo.TChain] > 0.05 {
		t.Errorf("T-Chain susceptibility = %.3f, want near zero", susc[algo.TChain])
	}
	if !(susc[algo.Altruism] > susc[algo.FairTorrent] &&
		susc[algo.FairTorrent] > susc[algo.TChain]) {
		t.Errorf("ordering violated: alt %.3f, ft %.3f, tc %.3f",
			susc[algo.Altruism], susc[algo.FairTorrent], susc[algo.TChain])
	}
	if !(susc[algo.BitTorrent] > susc[algo.TChain]) {
		t.Errorf("BitTorrent %.3f not above T-Chain %.3f", susc[algo.BitTorrent], susc[algo.TChain])
	}
	if susc[algo.Altruism] < 0.15 {
		t.Errorf("altruism susceptibility = %.3f, want ~free-rider share 0.2", susc[algo.Altruism])
	}
}

// TestFigure6LargeViewIncreasesSusceptibility: adding the large-view
// exploit increases every exploitable algorithm's susceptibility.
func TestFigure6LargeViewIncreasesSusceptibility(t *testing.T) {
	for _, a := range []algo.Algorithm{algo.BitTorrent, algo.FairTorrent, algo.Reputation} {
		base := mustRun(t, withFreeRiders(a, false)).Susceptibility()
		lv := mustRun(t, withFreeRiders(a, true)).Susceptibility()
		if lv <= base {
			t.Errorf("%v: large view %.4f not above baseline %.4f", a, lv, base)
		}
	}
	// T-Chain stays near zero even with the large view.
	lv := mustRun(t, withFreeRiders(algo.TChain, true)).Susceptibility()
	if lv > 0.05 {
		t.Errorf("T-Chain large-view susceptibility = %.3f, want near zero", lv)
	}
}

// TestFreeRidersStarveUnderTChain: free-riders get (almost) no plaintext
// under T-Chain but plenty under altruism.
func TestFreeRidersStarveUnderTChain(t *testing.T) {
	frDownload := func(res *Result) float64 {
		var sum float64
		for _, p := range res.Peers {
			if p.FreeRider {
				sum += p.Downloaded
			}
		}
		return sum
	}
	tc := mustRun(t, withFreeRiders(algo.TChain, false))
	alt := mustRun(t, withFreeRiders(algo.Altruism, false))
	if frDownload(tc) > 0.2*frDownload(alt) {
		t.Errorf("T-Chain free-riders got %.0f bytes vs altruism %.0f, want far less",
			frDownload(tc), frDownload(alt))
	}
	// Uncredited ciphertext is tracked separately.
	for _, p := range tc.Peers {
		if p.FreeRider && p.RawDown < p.Downloaded {
			t.Errorf("free-rider %d raw %g < credited %g", p.ID, p.RawDown, p.Downloaded)
		}
	}
}

// TestWhitewashingHelpsAgainstFairTorrent: the whitewashing attack gives
// FairTorrent free-riders more than plain passive free-riding.
func TestWhitewashingHelpsAgainstFairTorrent(t *testing.T) {
	passive := withFreeRiders(algo.FairTorrent, false)
	passive.Attack = attack.Plan{Kind: attack.Passive}
	ww := withFreeRiders(algo.FairTorrent, false) // MostEffective = whitewash
	pSusc := mustRun(t, passive).Susceptibility()
	wSusc := mustRun(t, ww).Susceptibility()
	if wSusc <= pSusc {
		t.Errorf("whitewash susceptibility %.4f not above passive %.4f", wSusc, pSusc)
	}
}

// TestFalsePraiseInflatesReputationSusceptibility: colluding false praise
// extracts more from the reputation algorithm than passive free-riding
// (Table III: collusion probability 1).
func TestFalsePraiseInflatesReputationSusceptibility(t *testing.T) {
	passive := withFreeRiders(algo.Reputation, false)
	praise := withFreeRiders(algo.Reputation, false)
	praise.Attack = attack.Plan{Kind: attack.FalsePraise, PraiseInterval: 5, PraiseBytes: 64 << 20}
	pSusc := mustRun(t, passive).Susceptibility()
	fSusc := mustRun(t, praise).Susceptibility()
	if fSusc <= pSusc {
		t.Errorf("false praise susceptibility %.4f not above passive %.4f", fSusc, pSusc)
	}
}

// TestFreeRidingDegradesEfficiencyAndFairness (Figure 5b/5c): for the
// susceptible algorithms, free-riding slows compliant downloads and lowers
// the compliant fairness ratio.
func TestFreeRidingDegradesEfficiencyAndFairness(t *testing.T) {
	for _, a := range []algo.Algorithm{algo.Altruism, algo.FairTorrent, algo.BitTorrent} {
		base := mustRun(t, testConfig(a))
		fr := mustRun(t, withFreeRiders(a, false))
		if stats.MeanDownloadTime(fr.Peers) <= stats.MeanDownloadTime(base.Peers) {
			t.Errorf("%v: download time %.1f with free-riders not above baseline %.1f",
				a, stats.MeanDownloadTime(fr.Peers), stats.MeanDownloadTime(base.Peers))
		}
		if stats.FairnessDU(fr.Peers) >= stats.FairnessDU(base.Peers) {
			t.Errorf("%v: fairness %.3f with free-riders not below baseline %.3f",
				a, stats.FairnessDU(fr.Peers), stats.FairnessDU(base.Peers))
		}
	}
}

func TestConservationOfBytes(t *testing.T) {
	for _, a := range []algo.Algorithm{algo.TChain, algo.Altruism, algo.FairTorrent} {
		res := mustRun(t, testConfig(a))
		var rawDown, credited float64
		for _, p := range res.Peers {
			rawDown += p.RawDown
			credited += p.Downloaded
		}
		if rawDown > res.TotalUploaded+1e-6 {
			t.Errorf("%v: received %g > uploaded %g", a, rawDown, res.TotalUploaded)
		}
		if credited > rawDown+1e-6 {
			t.Errorf("%v: credited %g > raw %g", a, credited, rawDown)
		}
		// Every compliant completion implies exactly fileSize credited bytes.
		for _, p := range res.Peers {
			if p.FinishAt >= 0 && math.Abs(p.Downloaded-res.Config.FileSize()) > 1e-6 {
				t.Errorf("%v: peer %d finished with %g credited bytes, want %g",
					a, p.ID, p.Downloaded, res.Config.FileSize())
			}
		}
	}
}

func TestSeriesRecorded(t *testing.T) {
	res := mustRun(t, testConfig(algo.TChain))
	for _, name := range []string{SeriesFairness, SeriesContribution, SeriesBootstrapped, SeriesCompleted, SeriesSusceptibility} {
		ts, ok := res.Series[name]
		if !ok || ts.Len() == 0 {
			t.Errorf("series %q missing or empty", name)
			continue
		}
	}
	// Bootstrapped and completed series are monotone nondecreasing.
	for _, name := range []string{SeriesBootstrapped, SeriesCompleted} {
		pts := res.Series[name].Points
		for i := 1; i < len(pts); i++ {
			if pts[i].V < pts[i-1].V-1e-12 {
				t.Errorf("series %q not monotone at %d", name, i)
			}
		}
	}
	last := res.Series[SeriesCompleted].Last().V
	if last != 1 {
		t.Errorf("final completed fraction = %g, want 1", last)
	}
}

func TestBootstrapFractionAccessor(t *testing.T) {
	res := mustRun(t, testConfig(algo.Altruism))
	if got := res.BootstrapFraction(0); got > 0.5 {
		t.Errorf("bootstrap fraction at t=0 = %g", got)
	}
	if got := res.BootstrapFraction(res.Duration); got < 0.99 {
		t.Errorf("final bootstrap fraction = %g, want ~1", got)
	}
}

func TestNoSeederSwarmBootstrapsViaFirstPeer(t *testing.T) {
	// With no seeder but one pre-seeded... not supported; instead check a
	// zero-rate seeder keeps validation but nobody ever bootstraps.
	cfg := testConfig(algo.Altruism)
	cfg.SeederRate = 0
	cfg.Horizon = 50
	res := mustRun(t, cfg)
	if res.BootstrapFraction(res.Duration) != 0 {
		t.Error("peers bootstrapped without any seed data")
	}
	if res.TotalUploaded != 0 {
		t.Errorf("bytes uploaded with no seeder: %g", res.TotalUploaded)
	}
}

func TestLeaveOnCompleteRemovesPeers(t *testing.T) {
	cfg := testConfig(algo.Altruism)
	res := mustRun(t, cfg)
	// After the run, every compliant peer finished and left; the swarm
	// drained before the horizon.
	if res.Duration >= cfg.Horizon {
		t.Errorf("run hit horizon %g", res.Duration)
	}
}

func TestStayOnCompleteKeepsSeeding(t *testing.T) {
	leave := testConfig(algo.TChain)
	stay := leave
	stay.LeaveOnComplete = false
	stay.StopWhenCompliantDone = true
	rLeave := mustRun(t, leave)
	rStay := mustRun(t, stay)
	// Finished peers that stay become extra seeders, so the swarm finishes
	// no slower (virtually always faster).
	if stats.MeanDownloadTime(rStay.Peers) > stats.MeanDownloadTime(rLeave.Peers)*1.1 {
		t.Errorf("staying seeders slowed the swarm: %.1f vs %.1f",
			stats.MeanDownloadTime(rStay.Peers), stats.MeanDownloadTime(rLeave.Peers))
	}
}

func TestPoissonArrivals(t *testing.T) {
	cfg := testConfig(algo.Altruism)
	cfg.Arrival = ArrivalPoisson
	cfg.MeanInterarrival = 2
	cfg.Horizon = 2000
	res := mustRun(t, cfg)
	if res.CompletionFraction() != 1 {
		t.Fatalf("completion = %g", res.CompletionFraction())
	}
	// Arrivals are spread: the last arrival lands far beyond the flash
	// crowd's 10 s window.
	var lastArrival float64
	for _, p := range res.Peers {
		if p.Arrival > lastArrival {
			lastArrival = p.Arrival
		}
	}
	if lastArrival < 50 {
		t.Errorf("last Poisson arrival at %.1fs, want well beyond the flash window", lastArrival)
	}
}

func TestPoissonValidation(t *testing.T) {
	cfg := testConfig(algo.Altruism)
	cfg.Arrival = ArrivalPoisson
	cfg.MeanInterarrival = 0 // invalid
	if _, err := NewSwarm(cfg); err == nil {
		t.Fatal("Poisson without interarrival accepted")
	}
	cfg.Arrival = ArrivalPattern(9)
	if _, err := NewSwarm(cfg); err == nil {
		t.Fatal("unknown arrival pattern accepted")
	}
}

func TestSnapshotCaptured(t *testing.T) {
	cfg := testConfig(algo.Altruism)
	cfg.SnapshotAt = 30
	res := mustRun(t, cfg)
	snap := res.Snapshot()
	if snap == nil {
		t.Fatal("no snapshot recorded")
	}
	if snap.At != 30 || snap.Pairs == 0 || len(snap.PieceCounts) == 0 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.PiAltruism < snap.PiDirect {
		t.Errorf("pi_A %.3f < pi_DR %.3f; mutual need cannot exceed one-way need",
			snap.PiAltruism, snap.PiDirect)
	}
	// No snapshot requested -> nil.
	plain := mustRun(t, testConfig(algo.Altruism))
	if plain.Snapshot() != nil {
		t.Error("unrequested snapshot present")
	}
}

func TestSnapshotAtNegativeRejected(t *testing.T) {
	cfg := testConfig(algo.Altruism)
	cfg.SnapshotAt = -1
	if _, err := NewSwarm(cfg); err == nil {
		t.Fatal("negative SnapshotAt accepted")
	}
}

func TestPropShareSimulation(t *testing.T) {
	cfg := testConfig(algo.PropShare)
	res := mustRun(t, cfg)
	if res.CompletionFraction() != 1 {
		t.Fatalf("PropShare completion = %g", res.CompletionFraction())
	}
	// Like BitTorrent, PropShare's fairness beats altruism's.
	alt := mustRun(t, testConfig(algo.Altruism))
	if stats.Fairness(res.Peers) >= stats.Fairness(alt.Peers) {
		t.Errorf("PropShare F %.3f not fairer than altruism %.3f",
			stats.Fairness(res.Peers), stats.Fairness(alt.Peers))
	}
}

func TestAbortRateChurn(t *testing.T) {
	cfg := testConfig(algo.TChain)
	cfg.AbortRate = 0.15
	res := mustRun(t, cfg)
	aborted := 0
	for _, p := range res.Peers {
		if p.Aborted {
			aborted++
			if p.FinishAt >= 0 {
				t.Errorf("peer %d both aborted and finished", p.ID)
			}
		}
	}
	if aborted == 0 {
		t.Fatal("no peers aborted despite AbortRate")
	}
	// Surviving compliant peers still finish.
	if got := res.CompletionFraction(); got != 1 {
		t.Errorf("survivor completion = %g, want 1", got)
	}
}

func TestSeederExitStallsReciprocity(t *testing.T) {
	// With pure reciprocity, the seeder is the only source; killing it
	// freezes bootstrapping.
	cfg := testConfig(algo.Reciprocity)
	cfg.SeederExitAt = 30
	cfg.Horizon = 200
	res := mustRun(t, cfg)
	atExit := res.BootstrapFraction(30)
	final := res.BootstrapFraction(res.Duration)
	// A piece already in flight at exit may still land; beyond that,
	// nothing moves.
	if final > atExit+0.1 {
		t.Errorf("bootstrap advanced after seeder exit: %.3f -> %.3f", atExit, final)
	}
}

func TestSeederExitSurvivableForAltruism(t *testing.T) {
	// Once enough pieces circulate, the swarm finishes without the origin.
	cfg := testConfig(algo.Altruism)
	cfg.SeederExitAt = 60
	res := mustRun(t, cfg)
	if got := res.CompletionFraction(); got < 0.95 {
		t.Errorf("completion = %g after seeder exit, want ~1", got)
	}
}

func TestFailureConfigValidation(t *testing.T) {
	for _, mod := range []func(*Config){
		func(c *Config) { c.AbortRate = -0.1 },
		func(c *Config) { c.AbortRate = 1 },
		func(c *Config) { c.SeederExitAt = -5 },
	} {
		cfg := testConfig(algo.Altruism)
		mod(&cfg)
		if _, err := NewSwarm(cfg); err == nil {
			t.Error("invalid failure config accepted")
		}
	}
}
