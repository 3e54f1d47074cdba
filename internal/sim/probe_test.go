package sim

import (
	"encoding/json"
	"testing"

	"repro/internal/algo"
	"repro/internal/attack"
	"repro/internal/probe"
)

// TestProbeObservesRun attaches a Counter and cross-checks its event
// tallies against the run's own result.
func TestProbeObservesRun(t *testing.T) {
	cfg := testConfig(algo.BitTorrent)
	sw, err := NewSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &probe.Counter{}
	if err := sw.Attach(c); err != nil {
		t.Fatal(err)
	}
	res, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}

	counts := c.Counts()
	if counts[probe.HookPeerJoin] != uint64(cfg.NumPeers) {
		t.Errorf("joins = %d, want %d", counts[probe.HookPeerJoin], cfg.NumPeers)
	}
	// Every transfer carries exactly one piece.
	wantTotal := float64(counts[probe.HookTransferFinish]) * cfg.PieceSize
	if res.TotalUploaded != wantTotal {
		t.Errorf("TotalUploaded = %v, want finishes*pieceSize = %v", res.TotalUploaded, wantTotal)
	}
	// Every credit credits one piece, so credits × piece size must agree
	// with the per-peer credited sums.
	var credited float64
	for _, p := range res.Peers {
		credited += p.Downloaded
	}
	if got := float64(counts[probe.HookCredit]) * cfg.PieceSize; got != credited {
		t.Errorf("credits*pieceSize = %v, want %v", got, credited)
	}
	if counts[probe.HookTransferStart] != counts[probe.HookTransferFinish] {
		t.Errorf("starts = %d, finishes = %d; transfers must pair up",
			counts[probe.HookTransferStart], counts[probe.HookTransferFinish])
	}
	// Unchokes include grants that did not become transfers (inactive
	// receiver, no needed piece, slot exhausted) — never fewer.
	if counts[probe.HookUnchoke] < counts[probe.HookTransferStart] {
		t.Errorf("unchokes = %d < starts = %d", counts[probe.HookUnchoke], counts[probe.HookTransferStart])
	}
	if counts[probe.HookSample] == 0 {
		t.Error("no Sample events observed")
	}
	bootstrapped := 0
	for _, p := range res.Peers {
		if p.BootstrapAt >= 0 {
			bootstrapped++
		}
	}
	if counts[probe.HookPeerBootstrap] != uint64(bootstrapped) {
		t.Errorf("bootstraps = %d, want %d", counts[probe.HookPeerBootstrap], bootstrapped)
	}
	finished := 0
	for _, p := range res.Peers {
		if p.FinishAt >= 0 {
			finished++
		}
	}
	if counts[probe.HookPeerComplete] != uint64(finished) {
		t.Errorf("completes = %d, want %d", counts[probe.HookPeerComplete], finished)
	}
}

// TestProbeSusceptibilityAgrees checks the free-rider credit stream against
// the susceptibility metric under an attack configuration.
func TestProbeSusceptibilityAgrees(t *testing.T) {
	cfg := testConfig(algo.BitTorrent)
	cfg.FreeRiderFraction = 0.2
	cfg.Attack = attack.Plan{Kind: attack.Passive}
	sw, err := NewSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &probe.Counter{}
	if err := sw.Attach(c); err != nil {
		t.Fatal(err)
	}
	res, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Every free-rider credit credits one piece.
	frBytes := float64(c.Counts()[probe.HookFreeRiderCredit]) * cfg.PieceSize
	if frBytes != res.FreeRiderCredited {
		t.Errorf("free_rider_credit*pieceSize = %v, want %v", frBytes, res.FreeRiderCredited)
	}
	if frBytes == 0 {
		t.Error("expected free-riders to capture credit under BitTorrent")
	}
}

// TestProbeDoesNotPerturbRun pins the counting contract: attaching a
// Counter must not change the simulation's outcome in any way.
func TestProbeDoesNotPerturbRun(t *testing.T) {
	cfg := testConfig(algo.TChain)
	cfg.FreeRiderFraction = 0.2
	cfg.Attack = attack.Plan{Kind: attack.Collusion}

	plain := mustRun(t, cfg)

	sw, err := NewSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Attach(&probe.Counter{}); err != nil {
		t.Fatal(err)
	}
	probed, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}

	a, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(probed)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("attaching a counter changed the run result")
	}
}

// TestAttachRules covers the Attach edge cases: a nil counter is ignored, a
// second counter is refused while the first still sees the whole run, and
// nothing attaches after Run.
func TestAttachRules(t *testing.T) {
	cfg := testConfig(algo.Altruism)
	sw, err := NewSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Attach(nil); err != nil {
		t.Errorf("Attach(nil) = %v, want nil", err)
	}
	c1, c2 := &probe.Counter{}, &probe.Counter{}
	if err := sw.Attach(c1); err != nil {
		t.Fatal(err)
	}
	if err := sw.Attach(c2); err == nil {
		t.Error("second Attach accepted")
	}
	if _, err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c1.Counts()[probe.HookPeerJoin]; got != uint64(cfg.NumPeers) {
		t.Errorf("first counter saw %d joins, want %d", got, cfg.NumPeers)
	}
	for name, n := range c2.Counts() {
		if n != 0 {
			t.Errorf("refused counter saw %d %s events", n, name)
		}
	}
	if err := sw.Attach(&probe.Counter{}); err == nil {
		t.Error("Attach after Run accepted")
	}
}

// runBenchSwarm runs one small swarm, optionally with a counter attached.
func runBenchSwarm(b *testing.B, c *probe.Counter) {
	b.Helper()
	cfg := Default(algo.BitTorrent, 60, 24)
	cfg.Seed = 11
	cfg.Horizon = 500
	sw, err := NewSwarm(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sw.Attach(c); err != nil {
		b.Fatal(err)
	}
	if _, err := sw.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSwarmNoProbe is the attach-overhead baseline: the same swarm as
// BenchmarkSwarmCounterProbe with nothing attached (the swarm counts into
// its own Counter).
func BenchmarkSwarmNoProbe(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runBenchSwarm(b, nil)
	}
}

// BenchmarkSwarmCounterProbe runs the same swarm counting into a caller's
// Counter; scripts/check.sh guards the allocation delta against
// BenchmarkSwarmNoProbe (it must be zero).
func BenchmarkSwarmCounterProbe(b *testing.B) {
	b.ReportAllocs()
	// One counter reused across iterations, outside the timed region, so
	// its own allocation doesn't show up in the delta even at -benchtime=1x.
	c := &probe.Counter{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBenchSwarm(b, c)
	}
}
