// Command bench is the repository's one benchmark: six workloads (two paper
// simulations, four live swarms), eight end-to-end metrics with regression
// bounds, per-layer metrics measured from outside the program, and a traced
// pass. BENCHMARK.json at the repository root names it; README.md beside this
// file explains every number.
//
//	bash bench/run.sh --workload swarm_tcp --seed 7 --seconds 10 --trace 0   # one run, the contract form
//	bash bench/run.sh                      # a set: reps of every workload in fresh processes, medians, out/result.json
//	bash bench/run.sh -trace 1             # a set plus the traced per-layer pass and out/trace.json
//	bash bench/run.sh -aa                  # two sets back to back, compared against the bounds
//	bash bench/run.sh -set -workload a,b   # a set of some workloads
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	workloadFlag := flag.String("workload", "", "one workload to run once in this process; with -set or -aa, a comma-separated subset")
	seed := flag.Int64("seed", goldenSeed, "seed every input is generated from")
	seconds := flag.Float64("seconds", defaultSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "1 adds the traced per-layer pass (a single run then reports per-layer metrics)")
	set := flag.Bool("set", false, "run a set: reps of each workload in fresh processes (implied when -workload is absent)")
	aa := flag.Bool("aa", false, "run two sets and compare their medians against the bounds")
	flag.Parse()

	if err := run(*workloadFlag, *seed, *seconds, *trace != 0, *set || *workloadFlag == "", *aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(names string, seed int64, seconds float64, traced, set, aa bool) error {
	if flag.NArg() > 0 || seconds <= 0 {
		return fmt.Errorf("unexpected arguments %q or non-positive -seconds", flag.Args())
	}
	if !set && !aa {
		w, err := findWorkload(names)
		if err != nil {
			return err
		}
		res, err := runWorkload(w, seed, seconds, traced, fullReplay)
		if err != nil {
			return err
		}
		if err := printRun(os.Stdout, res); err != nil {
			return err
		}
		if traced {
			if err := writeTrace(res.Spans); err != nil {
				return err
			}
		}
		if res.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed a check", w.name, res.Failed, res.Attempted)
		}
		return nil
	}

	selected := workloads
	if names != "" {
		selected = nil
		for _, name := range strings.Split(names, ",") {
			w, err := findWorkload(name)
			if err != nil {
				return err
			}
			selected = append(selected, w)
		}
	}
	if aa {
		return runAA(os.Stdout, selected, seed, seconds)
	}
	result, spans, err := runSet(os.Stdout, selected, seed, seconds, traced)
	if err != nil {
		return err
	}
	if err := writeSet(result, spans); err != nil {
		return err
	}
	if result.failed() {
		return errors.New("a correctness check failed")
	}
	return nil
}
