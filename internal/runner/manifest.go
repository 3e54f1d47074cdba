package runner

import (
	"math"
	"time"

	"repro/internal/probe"
	"repro/internal/sim"
)

// Manifest is the structured record of one batch member: what ran (the
// fully validated config and seed), where (worker count), how long it took
// in wall-clock and virtual time, how much happened (engine event count and
// the swarm's per-event counts), and the final scalar metrics. Manifests
// are plain JSON — NaN/Inf metrics are omitted from Summary so every
// manifest round-trips through encoding/json.
type Manifest struct {
	// Index is the member's position in the submitted batch.
	Index int `json:"index"`
	// Algorithm is the incentive mechanism's display name.
	Algorithm string `json:"algorithm"`
	// Seed is the run's random seed.
	Seed int64 `json:"seed"`
	// Workers is the pool size the batch executed on.
	Workers int `json:"workers"`
	// Config is the run's configuration after Validate's normalization —
	// re-running exactly this config reproduces the run bit-for-bit.
	Config sim.Config `json:"config"`
	// SetupMS and RunMS are the wall-clock milliseconds spent building the
	// swarm and executing it.
	SetupMS float64 `json:"setup_ms"`
	RunMS   float64 `json:"run_ms"`
	// VirtualTime is the simulated duration in seconds.
	VirtualTime float64 `json:"virtual_time_s"`
	// EventsProcessed counts engine events executed.
	EventsProcessed uint64 `json:"events_processed"`
	// HookCounts tallies the run's events by kind, keyed by the
	// probe.Hook* names.
	HookCounts map[string]uint64 `json:"hook_counts"`
	// Summary holds the final scalar metrics (the runner.Metric* names);
	// metrics undefined for this run (NaN or Inf) are omitted.
	Summary map[string]float64 `json:"summary"`
}

// MetricSummary computes the scalar metric map for one result, keyed by
// the Metric* names. Metrics undefined for the run (NaN or infinite — e.g.
// download time when nobody finished) are omitted so the map always
// marshals cleanly through encoding/json.
func MetricSummary(r *sim.Result) map[string]float64 {
	out := make(map[string]float64, len(MetricNames()))
	for _, name := range MetricNames() {
		if v := metricValue(r, name); !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[name] = v
		}
	}
	return out
}

// runOne executes one swarm counting into a Counter of its own and
// assembles its manifest. Attaching the counter cannot perturb the run
// (pinned by the sim tests).
func runOne(index int, cfg sim.Config, workers int) (*sim.Result, *Manifest, error) {
	setupStart := time.Now()
	sw, err := sim.NewSwarm(cfg)
	if err != nil {
		return nil, nil, err
	}
	var counter probe.Counter
	if err := sw.Attach(&counter); err != nil {
		return nil, nil, err
	}
	setup := time.Since(setupStart)
	runStart := time.Now()
	res, err := sw.Run()
	if err != nil {
		return nil, nil, err
	}
	m := &Manifest{
		Index:           index,
		Algorithm:       res.Config.Algorithm.String(),
		Seed:            res.Config.Seed,
		Workers:         workers,
		Config:          res.Config,
		SetupMS:         setup.Seconds() * 1e3,
		RunMS:           time.Since(runStart).Seconds() * 1e3,
		VirtualTime:     res.Duration,
		EventsProcessed: res.EventsProcessed,
		HookCounts:      counter.Counts(),
		Summary:         MetricSummary(res),
	}
	return res, m, nil
}

// RunManifested executes the configs on a default-sized pool and returns
// results plus per-member manifests.
func RunManifested(cfgs []sim.Config) ([]*sim.Result, []*Manifest, error) {
	return New(0).RunManifested(cfgs)
}
