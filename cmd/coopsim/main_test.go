package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cli"
)

func testOptions() options {
	return options{
		algoName:   "tchain",
		scale:      cli.ScaleFlags{Peers: 60, Pieces: 24, Seed: 1, Horizon: 600},
		seederRate: 1 << 20,
		rep:        cli.ReplicationFlags{Reps: 1},
	}
}

func TestRunTextOutput(t *testing.T) {
	var sb strings.Builder
	opts := testOptions()
	if err := run(opts, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"T-Chain", "completion:", "fairness (d/u):", "mean download time:", "wall clock:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "susceptibility") {
		t.Error("susceptibility printed without free-riders")
	}
}

func TestRunWithFreeRiders(t *testing.T) {
	var sb strings.Builder
	opts := testOptions()
	opts.freeRiders = 0.2
	opts.largeView = true
	if err := run(opts, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "susceptibility") {
		t.Error("susceptibility missing with free-riders")
	}
}

func TestRunJSONOutput(t *testing.T) {
	var sb strings.Builder
	opts := testOptions()
	opts.output.JSON = true
	if err := run(opts, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"\"config\"", "\"peers\"", "\"series\""} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q", want)
		}
	}
}

func TestRunJSONIncludesManifest(t *testing.T) {
	var sb strings.Builder
	opts := testOptions()
	opts.output.JSON = true
	if err := run(opts, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"\"manifest\"", "\"hook_counts\"", "\"run_ms\"", "\"summary\""} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing manifest field %q", want)
		}
	}
}

func TestRunReplicated(t *testing.T) {
	var sb strings.Builder
	opts := testOptions()
	opts.rep.Reps = 3
	opts.rep.Workers = 2
	if err := run(opts, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"replications:", "seeds 1..3", "mean_download_s:", "±"} {
		if !strings.Contains(out, want) {
			t.Errorf("replicated output missing %q:\n%s", want, out)
		}
	}
}

func TestRunReplicatedJSON(t *testing.T) {
	var sb strings.Builder
	opts := testOptions()
	opts.rep.Reps = 2
	opts.output.JSON = true
	if err := run(opts, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\"results\"", "\"metrics\"", "\"mean_download_s\"", "\"manifests\""} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("replicated JSON missing %q", want)
		}
	}
}

// TestRunReciprocityFairnessUndefined runs a Reciprocity swarm in which no
// compliant peer uploads, so neither fairness statistic has a ratio to
// average: both modes say so instead of printing NaN or "never".
func TestRunReciprocityFairnessUndefined(t *testing.T) {
	for _, reps := range []int{1, 3} {
		var sb strings.Builder
		opts := testOptions()
		opts.algoName = "reciprocity"
		opts.scale = cli.ScaleFlags{Peers: 50, Pieces: 16, Seed: 1, Horizon: 200}
		opts.rep = cli.ReplicationFlags{Reps: reps, Workers: 1}
		if err := run(opts, &sb); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		if strings.Contains(out, "NaN") {
			t.Errorf("reps %d: output prints NaN:\n%s", reps, out)
		}
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "fairness") && !strings.Contains(line, "undefined") {
				t.Errorf("reps %d: %q does not say undefined", reps, line)
			}
		}
		if got := strings.Count(out, "undefined"); got != 2 {
			t.Errorf("reps %d: %d undefined statistics, want the two fairness ones:\n%s", reps, got, out)
		}
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	opts := testOptions()
	opts.algoName = "bitcoin"
	if err := run(opts, &strings.Builder{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRunInvalidScale(t *testing.T) {
	opts := testOptions()
	opts.scale.Peers = 1
	if err := run(opts, &strings.Builder{}); err == nil {
		t.Fatal("invalid scale accepted")
	}
}

func TestFmtSeconds(t *testing.T) {
	if got := fmtSeconds(12.34); got != "12.3 s" {
		t.Errorf("fmtSeconds = %q", got)
	}
	if got := fmtSeconds(math.NaN()); !strings.Contains(got, "never") {
		t.Errorf("NaN = %q", got)
	}
}
