package experiment

import (
	"crypto/sha256"
	"encoding/hex"
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

// TestExperimentOutputsPinned pins the text every registered experiment
// prints at TestScale, byte for byte: Tables I–III, Figures 2–6, the
// ablations and the validations. The substring checks above catch a broken
// shape; this catches a shifted digit. Re-record a digest only for a change
// that means to alter what an experiment prints, with the reason in
// CHANGES.md.
func TestExperimentOutputsPinned(t *testing.T) {
	pinned := []struct{ name, digest string }{
		{"ablation-alphabt", "c76a979ac56c6b74a3176d595c879555448e92faf2d1459a7841928eb0ceeecc"},
		{"ablation-arrival", "6634ace6361836f6f6eb929310167426131d08f5158cba48b568dc311d030246"},
		{"ablation-churn", "b009eebfd2c9e6931bf6f980baab973c0b07e738c142ee852b22c7ba1afa88cc"},
		{"ablation-indirect", "66a29e6c24ce99a6fffb53460353a7b59c2a5f16050979d1bce91f59f2ec8f0d"},
		{"ablation-largeview", "e8cf68e70dc5a8795318514dc222a0076d9ff986e80189fb1ed3341d4311ee41"},
		{"ablation-nbt", "e6db86c79e58c14a0775eb1c3d3e8ea8c39150e6ef2a1649a8d563d92c6ff32a"},
		{"ablation-praise", "042ae76626cb72f0b348308bfacc5f91c8e51d4dcbc8b20017c7d79711e5960c"},
		{"ablation-propshare", "2e2cb8d77c7d4357d35b4ef80fc54f5b6db41270a9707b0bd9932294ff9758e0"},
		{"ablation-seeder", "110016673752cae9431380e1561200aa80998d47c33f73982d3e36de2c1bd7ef"},
		{"ablation-whitewash", "87806e2191c5eb301bb36791a27ad3f45bef552a806e03b0bf9929f5e6e2605f"},
		{"figure2", "55bfc98d000a9105c89951818f373f654b959130af4c79684f0f735cdc0a3f27"},
		{"figure3", "b12fc757ff2a6b924f138932be93beee0b19b1aebd273c1b17502bb0ae80b380"},
		{"figure4", "9afcdf0f8f4ae142948087f259291c89fabda7a5d0fc38388a26c49a4adf02b7"},
		{"figure5", "7e1fb66db76a7493377987ff281873ae377747ad74b461acd5346a27b759fa6f"},
		{"figure6", "fa4091672717649ffc98ef87dafb49da0c60f03cd8a7953b0e7c13af1d42b072"},
		{"lemma3", "4f56a28b85ad39c8ebf3c7b72d2de78a796a727d452844dc04507b3f2eb78671"},
		{"prop3", "bc426ad07059ea29e3b31849ae11749780633f253c5b35723d02e0ef9bf52692"},
		{"table1", "7c59e795660e86eb5e82f60865b519e7e1cf98758bc99f7254cf080f2e4fefc2"},
		{"table2", "e3b4cc227797c7ee3fbeb2ff7048719d3fef5d22a3b32215f48d84499002de7d"},
		{"table3", "ef0a7c2aefdc609c3809dedda04beea1b64930a8320bae140eff6446837cd415"},
		{"validate-availability", "0143dddf8b3642797fe074a5e9118341be313837c63072e3b9acd76feea5999c"},
		{"validate-bootstrap", "e4a888dbcc5e818e041655b408d1d6875c3f367b8f38d83f4f0950d78c2ca3e5"},
		{"validate-fluid", "eadc991f9552e088014d7d137941a6c174dc5723cbd56743d3b4f0ac305a92a8"},
	}
	if len(pinned) != len(Names()) {
		t.Errorf("%d experiments pinned, %d registered", len(pinned), len(Names()))
	}
	for _, p := range pinned {
		var sb strings.Builder
		if err := Run(p.name, TestScale(), &sb, nil); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		sum := sha256.Sum256([]byte(sb.String()))
		if got := hex.EncodeToString(sum[:]); got != p.digest {
			t.Errorf("%s: output digest %s, pinned %s", p.name, got, p.digest)
		}
	}
}
