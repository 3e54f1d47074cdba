// Command coopbench regenerates the paper's simulation figures (4, 5, 6)
// and the ablation studies, printing summary tables and writing the
// underlying time-series CSVs.
//
// Usage:
//
//	coopbench                          # figures 4-6 at test scale
//	coopbench -full                    # the paper's 1000-peer, 128 MB scale
//	coopbench -only figure5 -out out/  # one figure, with CSV artifacts
//	coopbench -ablations               # run the ablation sweeps instead
//	coopbench -json -out out/          # timing summary as JSON, tables as artifacts
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
)

// benchOptions collects the flag values; factored out so tests can drive run.
type benchOptions struct {
	full      bool
	only      string
	ablations bool
	output    cli.OutputFlags
}

func main() {
	var opts benchOptions
	flag.BoolVar(&opts.full, "full", false, "run at the paper's full scale (1000 peers, 512 pieces; minutes of runtime)")
	flag.StringVar(&opts.only, "only", "", "single experiment to run (see -list)")
	flag.BoolVar(&opts.ablations, "ablations", false, "run the ablation sweeps instead of the figures")
	opts.output.Register(flag.CommandLine)
	list := flag.Bool("list", false, "list runnable experiments and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(core.Experiments(), "\n"))
		return
	}
	if err := run(opts, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "coopbench: %v\n", err)
		os.Exit(1)
	}
}

func run(opts benchOptions, stdout io.Writer) error {
	scale := core.TestScale()
	if opts.full {
		scale = core.FullScale()
	}

	names := []string{"figure4", "figure5", "figure6"}
	if opts.ablations {
		names = []string{
			"ablation-alphabt", "ablation-nbt", "ablation-seeder",
			"ablation-largeview", "ablation-whitewash", "ablation-praise",
			"ablation-indirect", "ablation-propshare", "ablation-arrival",
			"ablation-churn",
		}
	}
	if opts.only != "" {
		names = []string{opts.only}
	}

	// In JSON mode the text report is suppressed; the tables are still
	// available as -out artifacts, and stdout carries only the summary.
	report := stdout
	if opts.output.JSON {
		report = io.Discard
	}
	var phases cli.Phases
	for _, name := range names {
		err := phases.Run(name, func() error {
			return core.RunExperiment(name, scale, report, opts.output.Dir)
		})
		if err != nil {
			return err
		}
		wall := phases.Entries()[phases.Len()-1].Wall
		fmt.Fprintf(report, "[%s completed in %v]\n\n", name, wall.Round(time.Millisecond))
	}
	if opts.output.JSON {
		type phaseJSON struct {
			Name   string  `json:"name"`
			WallMS float64 `json:"wall_ms"`
		}
		summary := struct {
			Experiments []phaseJSON `json:"experiments"`
			TotalMS     float64     `json:"total_ms"`
		}{TotalMS: float64(phases.Total()) / float64(time.Millisecond)}
		for _, e := range phases.Entries() {
			summary.Experiments = append(summary.Experiments,
				phaseJSON{Name: e.Name, WallMS: float64(e.Wall) / float64(time.Millisecond)})
		}
		return cli.WriteJSON(stdout, summary)
	}
	if phases.Len() > 1 {
		phases.Report(stdout)
	}
	return nil
}
