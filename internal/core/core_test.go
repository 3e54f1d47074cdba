package core

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestAlgorithmsAndParse(t *testing.T) {
	all := Algorithms()
	if len(all) != 6 {
		t.Fatalf("Algorithms() len = %d", len(all))
	}
	a, err := ParseAlgorithm("t-chain")
	if err != nil || a != TChain {
		t.Errorf("ParseAlgorithm = %v, %v", a, err)
	}
}

func TestSimulateDefaults(t *testing.T) {
	res, err := Simulate(Altruism, WithScale(60, 24), WithSeed(1), WithHorizon(600))
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionFraction() != 1 {
		t.Errorf("completion = %g", res.CompletionFraction())
	}
}

func TestSimulateOptions(t *testing.T) {
	res, err := Simulate(BitTorrent,
		WithScale(60, 24),
		WithSeed(2),
		WithHorizon(900),
		WithSeeder(2<<20),
		WithFreeRiders(0.2, MostEffectiveAttack(BitTorrent)),
		sim.WithConfig(func(c *sim.Config) { c.MaxNeighbors = 20 }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Susceptibility() <= 0 {
		t.Error("free-riders present but susceptibility 0")
	}
	if res.Config.MaxNeighbors != 20 {
		t.Error("a sim option composed with core's was lost")
	}
}

func TestSimulateInvalidConfig(t *testing.T) {
	if _, err := Simulate(Altruism, WithScale(1, 1)); err == nil {
		t.Fatal("invalid scale accepted")
	}
}

func TestCompareAll(t *testing.T) {
	results, err := CompareAll(WithScale(60, 24), WithSeed(3), WithHorizon(600))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("CompareAll returned %d results", len(results))
	}
	if results[Altruism].CompletionFraction() != 1 {
		t.Error("altruism swarm did not finish")
	}
	// Lemma 2: reciprocity peers never upload; anything they got came from
	// the seeder alone.
	if results[Reciprocity].PeerUploaded != 0 {
		t.Errorf("reciprocity peers uploaded %g bytes", results[Reciprocity].PeerUploaded)
	}
}

func TestEquilibrium(t *testing.T) {
	eq, err := NewEquilibrium([]float64{8, 8, 4, 4, 2, 2, 1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eAlt, fAlt := eq.Evaluate(Altruism)
	eTC, fTC := eq.Evaluate(TChain)
	if eAlt > eTC {
		t.Errorf("altruism E %g should not exceed T-Chain E %g", eAlt, eTC)
	}
	if fTC > fAlt {
		t.Errorf("T-Chain F %g should not exceed altruism F %g", fTC, fAlt)
	}
	if _, f := eq.Evaluate(Reciprocity); !math.IsNaN(f) {
		t.Errorf("reciprocity F = %g, want NaN", f)
	}
	if opt := eq.OptimalEfficiency(); opt <= 0 || eAlt < opt {
		t.Errorf("optimum %g vs altruism %g inconsistent", opt, eAlt)
	}
	if _, err := NewEquilibrium([]float64{1}, 0); err == nil {
		t.Error("single user accepted")
	}
}

func TestRunExperimentWithArtifacts(t *testing.T) {
	var sb strings.Builder
	dir := filepath.Join(t.TempDir(), "artifacts")
	if err := RunExperiment("table2", TestScale(), &sb, dir); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "91.8%") {
		t.Error("table2 output missing expected value")
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil || len(matches) == 0 {
		t.Errorf("no artifacts written: %v, %v", matches, err)
	}
}

func TestRunExperimentNoArtifacts(t *testing.T) {
	var sb strings.Builder
	if err := RunExperiment("figure2", TestScale(), &sb, ""); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentsListed(t *testing.T) {
	names := Experiments()
	if len(names) < 10 {
		t.Errorf("only %d experiments", len(names))
	}
}
