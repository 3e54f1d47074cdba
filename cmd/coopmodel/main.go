// Command coopmodel prints the paper's analytical artifacts: Tables I–III,
// the idealized and availability-constrained rankings (Figures 2–3),
// Lemma 3's expected bootstrap times, and Proposition 3's reputation-skew
// sweep.
//
// Usage:
//
//	coopmodel                     # print every analytical artifact
//	coopmodel -only table2        # print one artifact
//	coopmodel -out results/model  # also write CSV artifacts
//	coopmodel -json -out out/     # timing summary as JSON, tables as artifacts
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/experiment"
	"repro/internal/report"
)

// modelOptions collects the flag values; factored out so tests can drive run.
type modelOptions struct {
	only   string
	output cli.OutputFlags
}

func main() {
	var opts modelOptions
	flag.StringVar(&opts.only, "only", "", "single artifact to print (table1, table2, table3, figure2, figure3, lemma3, prop3)")
	opts.output.Register(flag.CommandLine)
	flag.Parse()

	if err := run(opts, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "coopmodel: %v\n", err)
		os.Exit(1)
	}
}

func run(opts modelOptions, stdout io.Writer) error {
	names := []string{"table1", "figure2", "figure3", "table2", "lemma3", "table3", "prop3"}
	if opts.only != "" {
		names = []string{opts.only}
	}
	scale := experiment.TestScale() // analytical artifacts ignore the scale
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
		fmt.Fprintln(out)
	}
	if err := sink.Flush(); err != nil {
		return err
	}
	if opts.output.JSON {
		return phases.WriteJSON(stdout, "artifacts")
	}
	return nil
}
