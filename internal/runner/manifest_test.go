package runner

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/probe"
	"repro/internal/sim"
)

func TestRunManifested(t *testing.T) {
	algos := []algo.Algorithm{algo.BitTorrent, algo.Altruism, algo.FairTorrent}
	cfgs := make([]sim.Config, len(algos))
	for i, a := range algos {
		cfgs[i] = testConfig(a, int64(i+1))
	}

	pool := New(2)
	plain, err := pool.Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	results, manifests, err := pool.RunManifested(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cfgs) || len(manifests) != len(cfgs) {
		t.Fatalf("got %d results, %d manifests; want %d each", len(results), len(manifests), len(cfgs))
	}

	for i, m := range manifests {
		// Run and RunManifested are one path: the results must agree.
		if got, want := resultKey(t, results[i]), resultKey(t, plain[i]); got != want {
			t.Errorf("member %d: manifested result differs from plain run", i)
		}
		if m.Index != i {
			t.Errorf("member %d: Index = %d", i, m.Index)
		}
		if m.Algorithm != algos[i].String() {
			t.Errorf("member %d: Algorithm = %q, want %q", i, m.Algorithm, algos[i])
		}
		if m.Seed != cfgs[i].Seed {
			t.Errorf("member %d: Seed = %d, want %d", i, m.Seed, cfgs[i].Seed)
		}
		if m.Workers != 2 {
			t.Errorf("member %d: Workers = %d, want 2", i, m.Workers)
		}
		if m.EventsProcessed == 0 || m.EventsProcessed != results[i].EventsProcessed {
			t.Errorf("member %d: EventsProcessed = %d, result has %d", i, m.EventsProcessed, results[i].EventsProcessed)
		}
		if m.VirtualTime != results[i].Duration {
			t.Errorf("member %d: VirtualTime = %v, want %v", i, m.VirtualTime, results[i].Duration)
		}
		if m.SetupMS < 0 || m.RunMS <= 0 {
			t.Errorf("member %d: timings SetupMS=%v RunMS=%v", i, m.SetupMS, m.RunMS)
		}
		if m.HookCounts[probe.HookSample] == 0 || m.HookCounts[probe.HookTransferFinish] == 0 {
			t.Errorf("member %d: missing hook counts: %v", i, m.HookCounts)
		}
		// The validated config must reproduce the run.
		rerun, err := Run([]sim.Config{m.Config})
		if err != nil {
			t.Fatalf("member %d: rerunning manifest config: %v", i, err)
		}
		if resultKey(t, rerun[0]) != resultKey(t, results[i]) {
			t.Errorf("member %d: manifest config does not reproduce the run", i)
		}
	}
}

func TestManifestRoundTripsJSON(t *testing.T) {
	cfg := testConfig(algo.TChain, 3)
	_, manifests, err := RunManifested([]sim.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	m := manifests[0]
	for name, v := range m.Summary {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("Summary[%s] = %v; non-finite values must be omitted", name, v)
		}
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	data2, err := json.Marshal(&back)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(data) != string(data2) {
		t.Error("manifest does not round-trip through encoding/json")
	}
}

func TestReplicateManifests(t *testing.T) {
	cfg := testConfig(algo.BitTorrent, 5)
	rep, err := New(0).Replicate(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Manifests) != 3 {
		t.Fatalf("got %d manifests, want 3", len(rep.Manifests))
	}
	for i, m := range rep.Manifests {
		if m.Seed != cfg.Seed+int64(i) {
			t.Errorf("manifest %d: Seed = %d, want %d", i, m.Seed, cfg.Seed+int64(i))
		}
	}
}

func TestMetricSummaryOmitsNaN(t *testing.T) {
	// A reciprocity run where nobody finishes leaves download times NaN.
	cfg := testConfig(algo.Reciprocity, 1)
	results, err := Run([]sim.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	sum := MetricSummary(results[0])
	if _, ok := sum[MetricMeanDownload]; ok && results[0].CompletionFraction() == 0 {
		t.Error("mean download present despite zero completions")
	}
	if _, ok := sum[MetricDuration]; !ok {
		t.Error("duration missing from summary")
	}
	if _, err := json.Marshal(sum); err != nil {
		t.Errorf("summary not marshalable: %v", err)
	}
}
