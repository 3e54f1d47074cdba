package runner

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/sim"
)

// testConfig returns a small, fast scenario.
func testConfig(a algo.Algorithm, seed int64) sim.Config {
	cfg := sim.Default(a, 40, 16)
	cfg.Horizon = 400
	cfg.Seed = seed
	return cfg
}

// resultKey reduces a result to a deterministic comparison fingerprint.
// JSON marshaling sorts map keys, so equal runs produce equal bytes.
func resultKey(t *testing.T, r *sim.Result) string {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRunMatchesSequentialByteForByte(t *testing.T) {
	algos := []algo.Algorithm{algo.BitTorrent, algo.TChain, algo.Altruism, algo.FairTorrent}
	cfgs := make([]sim.Config, len(algos))
	for i, a := range algos {
		cfgs[i] = testConfig(a, int64(i+1))
	}

	// Sequential reference, inline.
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		sw, err := sim.NewSwarm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sw.Run()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultKey(t, res)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		results, err := New(workers).Run(cfgs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != len(cfgs) {
			t.Fatalf("workers=%d: got %d results", workers, len(results))
		}
		for i, res := range results {
			if got := resultKey(t, res); got != want[i] {
				t.Errorf("workers=%d job %d: parallel result differs from sequential", workers, i)
			}
		}
	}
}

func TestRunSubmissionOrder(t *testing.T) {
	// Jobs with wildly different runtimes still come back in submission
	// order: the fast jobs must not overtake the slow ones.
	cfgs := []sim.Config{
		testConfig(algo.BitTorrent, 9),
		testConfig(algo.Altruism, 10),
		testConfig(algo.TChain, 11),
	}
	cfgs[0].NumPeers, cfgs[0].NumPieces = 80, 32 // slowest first
	results, err := New(4).Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Config.Seed != cfgs[i].Seed || res.Config.Algorithm != cfgs[i].Algorithm {
			t.Errorf("result %d is for seed %d/%v, want %d/%v",
				i, res.Config.Seed, res.Config.Algorithm, cfgs[i].Seed, cfgs[i].Algorithm)
		}
	}
}

func TestRunReportsLowestIndexedError(t *testing.T) {
	cfgs := []sim.Config{
		testConfig(algo.BitTorrent, 1),
		testConfig(algo.BitTorrent, 2),
		testConfig(algo.BitTorrent, 3),
	}
	cfgs[1].NumPeers = 1 // invalid
	cfgs[2].NumPeers = 0 // also invalid, but job 1 must win
	_, err := New(4).Run(cfgs)
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	if !strings.Contains(err.Error(), "job 1") {
		t.Errorf("error %q does not name the lowest failing job", err)
	}
}

func TestRunEmpty(t *testing.T) {
	results, err := New(4).Run(nil)
	if err != nil || results != nil {
		t.Errorf("empty batch: results=%v err=%v", results, err)
	}
}

func TestReplicateSeedsAndMetrics(t *testing.T) {
	const reps = 4
	base := testConfig(algo.BitTorrent, 100)
	rep, err := New(2).Replicate(base, reps)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != reps {
		t.Fatalf("got %d results, want %d", len(rep.Results), reps)
	}
	for i, res := range rep.Results {
		if want := base.Seed + int64(i); res.Config.Seed != want {
			t.Errorf("replication %d ran seed %d, want %d", i, res.Config.Seed, want)
		}
	}
	for _, name := range MetricNames() {
		s, ok := rep.Metrics[name]
		if !ok {
			t.Errorf("metric %q missing", name)
			continue
		}
		if s.N > reps {
			t.Errorf("metric %q has N=%d > reps", name, s.N)
		}
		if s.N > 0 && (math.IsNaN(s.Mean) || math.IsNaN(s.Stderr)) {
			t.Errorf("metric %q summary has NaN mean/stderr: %+v", name, s)
		}
	}
	// Completion is defined for every replication of this healthy swarm.
	if got := rep.Metrics[MetricCompletion].N; got != reps {
		t.Errorf("completion N = %d, want %d", got, reps)
	}
}

func TestReplicateIsDeterministic(t *testing.T) {
	base := testConfig(algo.TChain, 7)
	a, err := New(4).Replicate(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(1).Replicate(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, sa := range a.Metrics {
		if sb := b.Metrics[name]; sa != sb {
			t.Errorf("metric %q differs across worker counts: %+v vs %+v", name, sa, sb)
		}
	}
}

func TestReplicateRejectsBadCount(t *testing.T) {
	if _, err := New(1).Replicate(testConfig(algo.BitTorrent, 1), 0); err == nil {
		t.Fatal("reps=0 accepted")
	}
}

func TestDefaultWorkersEnvOverride(t *testing.T) {
	t.Setenv(EnvWorkers, "3")
	if got := DefaultWorkers(); got != 3 {
		t.Errorf("DefaultWorkers = %d with %s=3", got, EnvWorkers)
	}
	if got := New(0).Workers(); got != 3 {
		t.Errorf("New(0).Workers() = %d with %s=3", got, EnvWorkers)
	}
	t.Setenv(EnvWorkers, "not-a-number")
	if got := DefaultWorkers(); got < 1 {
		t.Errorf("DefaultWorkers = %d with garbage env", got)
	}
	if got := New(5).Workers(); got != 5 {
		t.Errorf("explicit worker count ignored: %d", got)
	}
}
