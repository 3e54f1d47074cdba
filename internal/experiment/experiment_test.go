package experiment

import (
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/report"
)

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != len(registry) {
		t.Fatalf("Names() returned %d of %d", len(names), len(registry))
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	for _, want := range []string{"table1", "table2", "table3", "figure2", "figure3", "figure4", "figure5", "figure6", "lemma3", "prop3"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("experiment %q not registered", want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := Run("nope", TestScale(), &sb, nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestAnalyticalExperiments runs every closed-form harness; these are cheap
// enough to assert on content.
func TestAnalyticalExperiments(t *testing.T) {
	cases := map[string][]string{
		"table1":  {"Table I", "Reciprocity", "Altruism"},
		"table2":  {"71.4%", "91.8%", "39.6%", "22.2%", "0.1%"},
		"table3":  {"Table III", "Collusion"},
		"figure2": {"Lemma 1 optimum", "undefined"},
		"figure3": {"pi_Altruism", "flash-crowd"},
		"lemma3":  {"E[T_B(1000)]", "Reciprocity"},
		"prop3":   {"Skew factor"},
	}
	for name, wants := range cases {
		var sb strings.Builder
		sink := report.NewSink(filepath.Join(t.TempDir(), name))
		if err := Run(name, TestScale(), &sb, sink); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := sb.String()
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", name, want, out)
			}
		}
		if len(sink.Files()) == 0 {
			t.Errorf("%s produced no artifacts", name)
		}
		if err := sink.Flush(); err != nil {
			t.Errorf("%s flush: %v", name, err)
		}
	}
}

// TestTable2MatchesPaperColumn parses the rendered Table II and compares
// our probabilities against the paper's printed example values.
func TestTable2MatchesPaperColumn(t *testing.T) {
	var sb strings.Builder
	if err := Run("table2", TestScale(), &sb, nil); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		// Rows look like: "T-Chain  71.4%  71.4%". Allow 0.2 percentage
		// points of slack for the paper's display rounding.
		last, prev := fields[len(fields)-1], fields[len(fields)-2]
		if strings.HasSuffix(last, "%") && strings.HasSuffix(prev, "%") {
			a, errA := strconv.ParseFloat(strings.TrimSuffix(prev, "%"), 64)
			b, errB := strconv.ParseFloat(strings.TrimSuffix(last, "%"), 64)
			if errA != nil || errB != nil {
				continue
			}
			if math.Abs(a-b) > 0.2 {
				t.Errorf("row %q: computed %s vs paper %s", line, prev, last)
			}
		}
	}
}

// TestSimulationFigures runs the three simulation figures at test scale.
func TestSimulationFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation figures take a few seconds")
	}
	scale := TestScale()
	for _, name := range []string{"figure4", "figure5", "figure6"} {
		var sb strings.Builder
		sink := report.NewSink(filepath.Join(t.TempDir(), name))
		if err := Run(name, scale, &sb, sink); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := sb.String()
		for _, want := range []string{"Reciprocity", "T-Chain", "Susceptibility"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", name, want, out)
			}
		}
		// The series artifacts exist for each sampled metric.
		files := sink.Files()
		if len(files) < 5 {
			t.Errorf("%s produced only %d artifacts: %v", name, len(files), files)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelOutputByteIdentical verifies the runner's determinism
// contract end-to-end: for a fixed seed set, the rendered experiment output
// is byte-for-byte identical whether the underlying swarms ran on one
// worker or fanned out across several.
func TestParallelOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each experiment twice")
	}
	scale := Scale{NumPeers: 60, NumPieces: 24, Horizon: 600, Seed: 3}
	for _, name := range []string{"figure4", "figure5", "ablation-seeder", "ablation-arrival"} {
		render := func(workers string) string {
			t.Setenv("REPRO_WORKERS", workers)
			var sb strings.Builder
			if err := Run(name, scale, &sb, nil); err != nil {
				t.Fatalf("%s (workers=%s): %v", name, workers, err)
			}
			return sb.String()
		}
		sequential := render("1")
		parallel := render("8")
		if sequential != parallel {
			t.Errorf("%s: parallel output differs from sequential:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
				name, sequential, parallel)
		}
	}
}

// TestValidateAvailability checks the model-vs-simulator cross-validation:
// the flash-crowd phase must show the bootstrapping obstruction (pi_DR far
// below pi_A) and the model must track the simulator.
func TestValidateAvailability(t *testing.T) {
	if testing.Short() {
		t.Skip("validation runs several simulations")
	}
	var sb strings.Builder
	scale := Scale{NumPeers: 200, NumPieces: 96, Horizon: 2000, Seed: 4}
	if err := Run("validate-availability", scale, &sb, nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"flash-crowd", "mid-swarm", "endgame"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing phase %q:\n%s", want, out)
		}
	}
}

// TestAblations runs each ablation harness at a reduced scale.
func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations take a few seconds")
	}
	scale := Scale{NumPeers: 60, NumPieces: 24, Horizon: 600, Seed: 3}
	for _, name := range []string{
		"ablation-alphabt", "ablation-nbt", "ablation-seeder",
		"ablation-largeview", "ablation-whitewash", "ablation-praise",
		"ablation-indirect", "ablation-propshare", "ablation-arrival",
		"ablation-churn",
	} {
		var sb strings.Builder
		if err := Run(name, scale, &sb, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(sb.String(), "Ablation") {
			t.Errorf("%s output missing title:\n%s", name, sb.String())
		}
	}
}

// TestValidateBootstrap checks the Table II dynamics validation: the model
// and the simulator agree that reciprocity is the slowest bootstrapper.
func TestValidateBootstrap(t *testing.T) {
	if testing.Short() {
		t.Skip("validation runs six simulations")
	}
	var sb strings.Builder
	scale := Scale{NumPeers: 120, NumPieces: 48, Horizon: 1000, Seed: 2}
	if err := Run("validate-bootstrap", scale, &sb, nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Reciprocity") || !strings.Contains(out, "Model t90(s)") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestValidateFluid checks the fluid-model cross-validation runs and
// produces the comparison table.
func TestValidateFluid(t *testing.T) {
	if testing.Short() {
		t.Skip("validation runs a simulation")
	}
	var sb strings.Builder
	scale := Scale{NumPeers: 120, NumPieces: 48, Horizon: 1500, Seed: 2}
	if err := Run("validate-fluid", scale, &sb, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Fluid t(s)") {
		t.Errorf("missing comparison table:\n%s", sb.String())
	}
}
