// Package runner is the deterministic fan-out layer for batch simulation:
// a bounded worker pool that executes independent swarm runs on parallel
// goroutines while preserving the sequential path's output bit-for-bit.
//
// The determinism contract has three parts:
//
//  1. Each job is a self-contained sim.Config whose Seed drives a private
//     RNG, so a run's outcome depends only on its config — never on which
//     worker executed it or in what order jobs were picked up.
//  2. Results are returned in submission order, so tables rendered from a
//     batch are byte-identical to those from an inline sequential loop.
//  3. Errors are reported for the lowest-indexed failing job, so failures
//     are reproducible regardless of scheduling.
//
// The worker count defaults to GOMAXPROCS and can be overridden with the
// REPRO_WORKERS environment variable or an explicit New(workers).
package runner

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/sim"
	"repro/internal/stats"
)

// EnvWorkers is the environment variable that overrides the default worker
// count (used by the CLI tools and the root benchmark harness).
const EnvWorkers = "REPRO_WORKERS"

// DefaultWorkers returns the pool size used when none is given: the value
// of REPRO_WORKERS if set to a positive integer, otherwise GOMAXPROCS.
func DefaultWorkers() int {
	if v := os.Getenv(EnvWorkers); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Pool executes batches of independent simulation runs across a fixed
// number of worker goroutines. A Pool is stateless between calls and safe
// for concurrent use.
type Pool struct {
	workers int
}

// New returns a pool with the given worker count; workers <= 0 selects
// DefaultWorkers().
func New(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// RunManifested executes every config on the pool and returns the results
// and a manifest per batch member, both in submission order. Each swarm
// runs with its own seed-derived RNG, so the results are identical for any
// worker count; only the manifests' wall-clock fields vary between
// invocations. On failure it returns the error of the lowest-indexed
// failing job.
func (p *Pool) RunManifested(cfgs []sim.Config) ([]*sim.Result, []*Manifest, error) {
	if len(cfgs) == 0 {
		return nil, nil, nil
	}
	results := make([]*sim.Result, len(cfgs))
	manifests := make([]*Manifest, len(cfgs))
	errs := make([]error, len(cfgs))
	workers := min(p.workers, len(cfgs))
	job := func(i int) { results[i], manifests[i], errs[i] = runOne(i, cfgs[i], workers) }
	if workers == 1 {
		for i := range cfgs {
			job(i)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					job(i)
				}
			}()
		}
		for i := range cfgs {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("runner: job %d (%v, seed %d): %w", i, cfgs[i].Algorithm, cfgs[i].Seed, err)
		}
	}
	return results, manifests, nil
}

// Run is RunManifested without the manifests.
func (p *Pool) Run(cfgs []sim.Config) ([]*sim.Result, error) {
	results, _, err := p.RunManifested(cfgs)
	return results, err
}

// Run executes the configs on a pool of DefaultWorkers() workers.
func Run(cfgs []sim.Config) ([]*sim.Result, error) {
	return New(0).Run(cfgs)
}

// Per-replication metric names, the keys of Replication.Metrics.
const (
	// MetricCompletion is the fraction of compliant peers that finished.
	MetricCompletion = "completion"
	// MetricMeanDownload is the mean compliant download time in seconds.
	MetricMeanDownload = "mean_download_s"
	// MetricMedianDownload is the median compliant download time in seconds.
	MetricMedianDownload = "median_download_s"
	// MetricFairness is the end-of-run mean d/u ratio (1 = perfectly fair).
	MetricFairness = "fairness_du"
	// MetricLogFairness is the paper's Eq. 3 statistic (0 = perfectly fair).
	MetricLogFairness = "fairness_eq3"
	// MetricMeanBootstrap is the mean time to the first credited piece.
	MetricMeanBootstrap = "mean_bootstrap_s"
	// MetricSusceptibility is the fraction of peer upload bytes captured by
	// free-riders.
	MetricSusceptibility = "susceptibility"
	// MetricDuration is the simulated run length in seconds.
	MetricDuration = "duration_s"
)

// MetricNames lists the replication metrics in presentation order.
func MetricNames() []string {
	return []string{
		MetricCompletion, MetricMeanDownload, MetricMedianDownload,
		MetricFairness, MetricLogFairness, MetricMeanBootstrap,
		MetricSusceptibility, MetricDuration,
	}
}

// metricValue returns one Metric* value of a result, NaN when the metric is
// undefined for the run (download times when nobody finished).
func metricValue(r *sim.Result, name string) float64 {
	switch name {
	case MetricCompletion:
		return r.CompletionFraction()
	case MetricMeanDownload:
		return stats.MeanDownloadTime(r.Peers)
	case MetricMedianDownload:
		if dl := stats.DownloadTimeSummary(r.Peers); dl.N > 0 {
			return dl.Median
		}
	case MetricFairness:
		return stats.FairnessDU(r.Peers)
	case MetricLogFairness:
		return stats.Fairness(r.Peers)
	case MetricMeanBootstrap:
		return stats.MeanBootstrapTime(r.Peers)
	case MetricSusceptibility:
		return r.Susceptibility()
	case MetricDuration:
		return r.Duration
	}
	return math.NaN()
}

// Replication aggregates repeated runs of one scenario under different
// seeds. Metrics maps each metric name to a stats.Summary whose Mean and
// Stderr give the headline "mean ± stderr" numbers; replications where a
// metric is undefined (NaN — e.g. download time when nobody finished) are
// excluded from that metric's summary, so Summary.N may be below the
// replication count.
type Replication struct {
	// Config is the base configuration; replication i ran with seed
	// Config.Seed + i.
	Config sim.Config `json:"config"`
	// Results holds the per-replication outcomes in seed order.
	Results []*sim.Result `json:"results"`
	// Manifests holds the per-replication run manifests in seed order.
	Manifests []*Manifest `json:"manifests"`
	// Metrics summarizes each scalar metric across replications.
	Metrics map[string]stats.Summary `json:"metrics"`
}

// Replicate runs reps copies of cfg with seeds cfg.Seed, cfg.Seed+1, ...,
// cfg.Seed+reps-1 on the pool and aggregates the per-run scalar metrics.
func (p *Pool) Replicate(cfg sim.Config, reps int) (*Replication, error) {
	if reps < 1 {
		return nil, fmt.Errorf("runner: replication count %d must be >= 1", reps)
	}
	cfgs := make([]sim.Config, reps)
	for i := range cfgs {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		cfgs[i] = c
	}
	results, manifests, err := p.RunManifested(cfgs)
	if err != nil {
		return nil, err
	}
	metrics := make(map[string]stats.Summary, len(MetricNames()))
	for _, name := range MetricNames() {
		xs := make([]float64, len(results))
		for i, r := range results {
			xs[i] = metricValue(r, name)
		}
		metrics[name] = stats.Summarize(xs)
	}
	return &Replication{Config: cfg, Results: results, Manifests: manifests, Metrics: metrics}, nil
}
