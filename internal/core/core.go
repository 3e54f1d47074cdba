// Package core is the library's façade: one import that exposes the
// paper's six incentive mechanisms, the swarm simulator, the closed-form
// performance model, and the experiment harnesses behind a small,
// stable API. The example programs and command-line tools are written
// against this package only — which is why it restates the handful of
// sim.WithX options they use under its own name: a caller that needs one
// more knob imports internal/sim (Option is an alias, so the two compose),
// and everything else never learns the simulator's package layout.
package core

import (
	"fmt"
	"io"

	"repro/internal/algo"
	"repro/internal/analysis"
	"repro/internal/attack"
	"repro/internal/bandwidth"
	"repro/internal/experiment"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Algorithm identifies an incentive mechanism; see Algorithms for the set.
type Algorithm = algo.Algorithm

// The six mechanisms the paper compares.
const (
	Reciprocity = algo.Reciprocity
	TChain      = algo.TChain
	BitTorrent  = algo.BitTorrent
	FairTorrent = algo.FairTorrent
	Reputation  = algo.Reputation
	Altruism    = algo.Altruism
)

// Algorithms lists all six mechanisms in the paper's table order.
func Algorithms() []Algorithm { return algo.All() }

// ParseAlgorithm resolves a case-insensitive mechanism name.
func ParseAlgorithm(name string) (Algorithm, error) { return algo.Parse(name) }

// Result is a completed simulation run's output.
type Result = sim.Result

// AttackPlan describes free-rider behaviour.
type AttackPlan = attack.Plan

// MostEffectiveAttack returns the paper's per-algorithm strongest attack.
func MostEffectiveAttack(a Algorithm) AttackPlan { return attack.MostEffective(a) }

// Option customizes a simulation scenario. It is an alias for sim.Option,
// so options built here and in the sim package compose freely.
type Option = sim.Option

// WithScale sets the swarm size and file granularity (peers × pieces of
// 256 KB). The paper's full scale is WithScale(1000, 512).
func WithScale(peers, pieces int) Option { return sim.WithScale(peers, pieces) }

// WithSeed fixes the run's random seed; equal seeds replay bit-for-bit.
func WithSeed(seed int64) Option { return sim.WithSeed(seed) }

// WithHorizon caps the simulated time in seconds.
func WithHorizon(seconds float64) Option { return sim.WithHorizon(seconds) }

// WithFreeRiders makes `fraction` of the peers free-ride using the given
// plan (see MostEffectiveAttack).
func WithFreeRiders(fraction float64, plan AttackPlan) Option {
	return sim.WithFreeRiders(fraction, plan)
}

// WithBandwidth sets the peer upload-capacity mix.
func WithBandwidth(d bandwidth.Distribution) Option { return sim.WithBandwidth(d) }

// WithSeeder sets the origin server's upload rate in bytes/second.
func WithSeeder(rate float64) Option { return sim.WithSeeder(rate) }

// WithFaults injects failures: abortRate of compliant peers crash
// mid-download, and the seeder exits at seederExitAt (0 disables either
// knob). It composes sim.WithAbortRate and sim.WithSeederExit.
func WithFaults(abortRate, seederExitAt float64) Option {
	return func(c *sim.Config) {
		sim.WithAbortRate(abortRate)(c)
		sim.WithSeederExit(seederExitAt)(c)
	}
}

// Probe observes a simulation run through the swarm's hook stream; see the
// probe package for the hook catalogue and the Base embedding helper.
type Probe = probe.Probe

// Manifest is the structured record of one run: validated config, seed,
// timings, event counts, and final metrics. See SimulateManifested and
// Replication.Manifests.
type Manifest = runner.Manifest

// Simulate runs one flash-crowd scenario under the given mechanism and
// returns its metrics and time series. Defaults follow the paper's
// Section V-A setup at a laptop-friendly scale (200 peers, 128 pieces);
// use WithScale(1000, 512) for the full-paper scale.
func Simulate(a Algorithm, opts ...Option) (*Result, error) {
	return SimulateObserved(a, nil, opts...)
}

// SimulateObserved is Simulate with a probe attached for the duration of
// the run; p may be nil.
func SimulateObserved(a Algorithm, p Probe, opts ...Option) (*Result, error) {
	cfg := sim.Default(a, 200, 128, opts...)
	cfg.Algorithm = a
	swarm, err := sim.NewSwarm(cfg)
	if err != nil {
		return nil, err
	}
	if err := swarm.Attach(p); err != nil {
		return nil, err
	}
	return swarm.Run()
}

// SimulateManifested is Simulate plus the run's manifest.
func SimulateManifested(a Algorithm, opts ...Option) (*Result, *Manifest, error) {
	cfg := sim.Default(a, 200, 128, opts...)
	cfg.Algorithm = a
	results, manifests, err := runner.New(1).RunManifested([]sim.Config{cfg})
	if err != nil {
		return nil, nil, err
	}
	return results[0], manifests[0], nil
}

// CompareAll runs the same scenario under all six mechanisms, fanning the
// runs out across the replication runner's worker pool. Results are
// deterministic: each run's outcome depends only on its config and seed.
func CompareAll(opts ...Option) (map[Algorithm]*Result, error) {
	algos := Algorithms()
	cfgs := make([]sim.Config, len(algos))
	for i, a := range algos {
		cfg := sim.Default(a, 200, 128, opts...)
		cfg.Algorithm = a
		cfgs[i] = cfg
	}
	results, err := runner.Run(cfgs)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	out := make(map[Algorithm]*Result, len(algos))
	for i, a := range algos {
		out[a] = results[i]
	}
	return out, nil
}

// Replication aggregates repeated seeded runs of one scenario; see
// SimulateReplicated.
type Replication = runner.Replication

// ReplicationMetrics lists the metric keys of Replication.Metrics in
// presentation order.
func ReplicationMetrics() []string { return runner.MetricNames() }

// DefaultWorkers returns the parallel runner's default worker-pool size:
// the REPRO_WORKERS environment variable when set, otherwise GOMAXPROCS.
func DefaultWorkers() int { return runner.DefaultWorkers() }

// SimulateReplicated runs reps replications of one scenario on a pool of
// `workers` goroutines (workers <= 0 selects DefaultWorkers). Replication i
// runs with seed base+i, where base comes from WithSeed (default 0); the
// returned Replication reports each metric's mean ± standard error across
// the seeds. Output is deterministic for a fixed seed and replication
// count, regardless of the worker count.
func SimulateReplicated(a Algorithm, reps, workers int, opts ...Option) (*Replication, error) {
	cfg := sim.Default(a, 200, 128, opts...)
	cfg.Algorithm = a
	return runner.New(workers).Replicate(cfg, reps)
}

// Equilibrium exposes the paper's closed-form model (Section IV-A) for a
// capacity vector: per-algorithm equilibrium efficiency E (Eq. 2) and
// fairness F (Eq. 3).
type Equilibrium struct {
	scenario *analysis.Scenario
}

// NewEquilibrium builds the analytical model with the paper's default
// α_BT = 0.2, α_R = 0.1, n_BT = 4.
func NewEquilibrium(capacities []float64, seederRate float64) (*Equilibrium, error) {
	s, err := analysis.NewScenario(capacities, seederRate, 0.2, 0.1, 4)
	if err != nil {
		return nil, err
	}
	return &Equilibrium{scenario: s}, nil
}

// Evaluate returns (E, F) for one mechanism; F is NaN where the paper
// calls it undefined (pure reciprocity).
func (e *Equilibrium) Evaluate(a Algorithm) (efficiency, fairness float64) {
	return e.scenario.Evaluate(a)
}

// OptimalEfficiency returns Lemma 1's lower bound on E.
func (e *Equilibrium) OptimalEfficiency() float64 {
	return e.scenario.OptimalEfficiency()
}

// ExperimentScale sizes the Section V reproductions.
type ExperimentScale = experiment.Scale

// FullScale is the paper's experimental scale (1000 peers, 128 MB file).
func FullScale() ExperimentScale { return experiment.FullScale() }

// TestScale returns a fast scale preserving all qualitative shapes.
func TestScale() ExperimentScale { return experiment.TestScale() }

// Experiments lists the runnable table/figure reproductions.
func Experiments() []string { return experiment.Names() }

// RunExperiment executes one named table/figure reproduction, writing the
// report to w and CSV/JSON artifacts under outDir ("" skips artifacts).
func RunExperiment(name string, scale ExperimentScale, w io.Writer, outDir string) error {
	var sink *report.Sink
	if outDir != "" {
		sink = report.NewSink(outDir)
	}
	if err := experiment.Run(name, scale, w, sink); err != nil {
		return err
	}
	return sink.Flush()
}
