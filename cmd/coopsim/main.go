// Command coopsim runs one swarm simulation and reports its metrics.
//
// Usage:
//
//	coopsim -algo tchain                         # defaults: 200 peers, 32 MB
//	coopsim -algo bittorrent -peers 1000 -pieces 512 -freeriders 0.2
//	coopsim -algo fairtorrent -freeriders 0.2 -largeview -json
//	coopsim -algo tchain -reps 8 -workers 4      # mean ± stderr over 8 seeds
//	coopsim -algo tchain -cpuprofile cpu.pprof   # profile the run
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/algo"
	"repro/internal/attack"
	"repro/internal/cli"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// options collects the flag values; factored out so tests can drive run.
type options struct {
	algoName   string
	scale      cli.ScaleFlags
	freeRiders float64
	largeView  bool
	seederRate float64
	abortRate  float64
	seederExit float64
	output     cli.OutputFlags
	rep        cli.ReplicationFlags
	profile    cli.ProfileFlags
}

func main() {
	opts := options{scale: cli.DefaultScale(), rep: cli.ReplicationFlags{Reps: 1}}
	flag.StringVar(&opts.algoName, "algo", "tchain",
		"incentive mechanism: reciprocity, tchain, bittorrent, fairtorrent, reputation, altruism, propshare")
	opts.scale.Register(flag.CommandLine)
	flag.Float64Var(&opts.freeRiders, "freeriders", 0, "fraction of free-riding peers")
	flag.BoolVar(&opts.largeView, "largeview", false, "free-riders use the large-view exploit")
	flag.Float64Var(&opts.seederRate, "seeder", 1<<20, "seeder upload rate in bytes/second")
	flag.Float64Var(&opts.abortRate, "abort", 0, "fraction of compliant peers that crash mid-download")
	flag.Float64Var(&opts.seederExit, "seederexit", 0, "virtual time at which the seeder exits (0 = never)")
	opts.output.RegisterJSON(flag.CommandLine)
	opts.rep.Register(flag.CommandLine)
	opts.profile.Register(flag.CommandLine)
	flag.Parse()

	err := opts.profile.Start()
	if err == nil {
		err = run(opts, os.Stdout)
	}
	if perr := opts.profile.Stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "coopsim: %v\n", err)
		os.Exit(1)
	}
}

func run(opts options, stdout io.Writer) error {
	a, err := algo.Parse(opts.algoName)
	if err != nil {
		return err
	}
	cfg := sim.Default(a, opts.scale.Peers, opts.scale.Pieces,
		sim.WithSeed(opts.scale.Seed),
		sim.WithHorizon(opts.scale.Horizon),
		sim.WithSeeder(opts.seederRate),
		sim.WithAbortRate(opts.abortRate),
		sim.WithSeederExit(opts.seederExit),
	)
	if opts.freeRiders > 0 {
		plan := attack.MostEffective(a)
		if opts.largeView {
			plan = plan.WithLargeView()
		}
		cfg.FreeRiderFraction, cfg.Attack = opts.freeRiders, plan
	}

	if opts.rep.Reps > 1 {
		return runReplicated(cfg, opts, stdout)
	}

	results, manifests, err := runner.New(1).RunManifested([]sim.Config{cfg})
	if err != nil {
		return err
	}
	res, manifest := results[0], manifests[0]

	if opts.output.JSON {
		return cli.WriteJSON(stdout, struct {
			Result   *sim.Result      `json:"result"`
			Manifest *runner.Manifest `json:"manifest"`
		}{res, manifest})
	}

	fmt.Fprintf(stdout, "algorithm:           %v\n", a)
	fmt.Fprintf(stdout, "peers / pieces:      %d / %d (%.0f MB)\n", opts.scale.Peers, opts.scale.Pieces, res.Config.FileSize()/(1<<20))
	fmt.Fprintf(stdout, "simulated duration:  %.0f s (%d events)\n", res.Duration, res.EventsProcessed)
	fmt.Fprintf(stdout, "wall clock:          %.1f ms setup + %.1f ms run\n", manifest.SetupMS, manifest.RunMS)
	fmt.Fprintf(stdout, "completion:          %.1f%% of compliant peers\n", 100*res.CompletionFraction())
	fmt.Fprintf(stdout, "mean download time:  %s\n", fmtSeconds(stats.MeanDownloadTime(res.Peers)))
	fmt.Fprintf(stdout, "mean bootstrap time: %s\n", fmtSeconds(stats.MeanBootstrapTime(res.Peers)))
	fmt.Fprintf(stdout, "fairness (d/u):      %s\n", fmtFairness(stats.FairnessDU(res.Peers), "1.0"))
	fmt.Fprintf(stdout, "fairness F (Eq. 3):  %s\n", fmtFairness(stats.Fairness(res.Peers), "0"))
	if opts.freeRiders > 0 {
		fmt.Fprintf(stdout, "susceptibility:      %.2f%% of peer upload bandwidth\n", 100*res.Susceptibility())
	}
	return nil
}

// runReplicated executes reps seeded replications of cfg on the parallel
// runner and prints each metric's mean ± standard error.
func runReplicated(cfg sim.Config, opts options, stdout io.Writer) error {
	pool := runner.New(opts.rep.Workers)
	rep, err := pool.Replicate(cfg, opts.rep.Reps)
	if err != nil {
		return err
	}
	if opts.output.JSON {
		return cli.WriteJSON(stdout, rep)
	}
	fmt.Fprintf(stdout, "algorithm:           %v\n", cfg.Algorithm)
	fmt.Fprintf(stdout, "peers / pieces:      %d / %d\n", opts.scale.Peers, opts.scale.Pieces)
	fmt.Fprintf(stdout, "replications:        %d (seeds %d..%d, %d workers)\n",
		opts.rep.Reps, opts.scale.Seed, opts.scale.Seed+int64(opts.rep.Reps)-1, pool.Workers())
	for _, name := range runner.MetricNames() {
		s := rep.Metrics[name]
		if s.N == 0 {
			undefined := "never (in any replication)"
			if name == runner.MetricFairness || name == runner.MetricLogFairness {
				undefined = "undefined (in every replication)"
			}
			fmt.Fprintf(stdout, "%-20s %s\n", name+":", undefined)
			continue
		}
		fmt.Fprintf(stdout, "%-20s %.4g ± %.2g (n=%d)\n", name+":", s.Mean, s.Stderr, s.N)
	}
	return nil
}

// fmtSeconds renders a duration metric, with NaN meaning "nobody finished".
func fmtSeconds(v float64) string {
	if math.IsNaN(v) {
		return "never (within horizon)"
	}
	return fmt.Sprintf("%.1f s", v)
}

// fmtFairness renders a fairness statistic beside the value that is
// perfectly fair; NaN means no compliant peer both uploaded and downloaded,
// so there is no ratio to average (Figure 2 prints it the same way).
func fmtFairness(v float64, fair string) string {
	if math.IsNaN(v) {
		return "undefined (no compliant peer both uploaded and downloaded)"
	}
	return fmt.Sprintf("%.3f (%s = perfectly fair)", v, fair)
}
