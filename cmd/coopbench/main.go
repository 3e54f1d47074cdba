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
	"repro/internal/experiment"
	"repro/internal/report"
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
		fmt.Println(strings.Join(experiment.Names(), "\n"))
		return
	}
	if err := run(opts, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "coopbench: %v\n", err)
		os.Exit(1)
	}
}

func run(opts benchOptions, stdout io.Writer) error {
	scale := experiment.TestScale()
	if opts.full {
		scale = experiment.FullScale()
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
	out := stdout
	if opts.output.JSON {
		out = io.Discard
	}
	sink := report.NewSink(opts.output.Dir)
	var phases cli.Phases
	for _, name := range names {
		err := phases.Run(name, func() error {
			return experiment.Run(name, scale, out, sink)
		})
		if err != nil {
			return err
		}
		wall := phases.Entries()[phases.Len()-1].Wall
		fmt.Fprintf(out, "[%s completed in %v]\n\n", name, wall.Round(time.Millisecond))
	}
	if err := sink.Flush(); err != nil {
		return err
	}
	if opts.output.JSON {
		return phases.WriteJSON(stdout, "experiments")
	}
	if phases.Len() > 1 {
		phases.Report(stdout)
	}
	return nil
}
