package metrics

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestMetricsConcurrent hammers one counter from GOMAXPROCS goroutines
// and asserts the total — the write path must lose nothing under -race.
func TestMetricsConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total")

	workers := runtime.GOMAXPROCS(0)
	const perWorker = 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(2)
			}
		}()
	}
	wg.Wait()

	total := int64(workers) * perWorker
	if got := c.Value(); got != 2*total {
		t.Errorf("counter = %d, want %d", got, 2*total)
	}
	snap := reg.Snapshot()
	if snap.Counters["test_ops_total"] != 2*total {
		t.Errorf("snapshot counter = %d, want %d", snap.Counters["test_ops_total"], 2*total)
	}
}

// TestRegistryGetOrCreate pins the idempotent lookup contract: same name,
// same metric.
func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("x") != reg.Counter("x") {
		t.Error("Counter not idempotent")
	}
}

// TestGaugeFunc covers pull-style gauges folding into the snapshot.
func TestGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	v := int64(7)
	reg.RegisterGaugeFunc("test_pull", func() int64 { return v })
	if got := reg.Snapshot().Gauges["test_pull"]; got != 7 {
		t.Errorf("gauge func = %d, want 7", got)
	}
	v = 9
	if got := reg.Snapshot().Gauges["test_pull"]; got != 9 {
		t.Errorf("gauge func after update = %d, want 9", got)
	}
}

// TestSnapshotJSONRoundTrip pins the /metrics JSON contract: a snapshot
// marshals and decodes back into an equal Snapshot.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`node_peer_download_bytes_total{peer="3"}`).Add(4096)
	reg.Counter("node_frames_received_total").Add(17)
	reg.RegisterGaugeFunc("node_outbox_depth", func() int64 { return 5 })

	snap := reg.Snapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters[`node_peer_download_bytes_total{peer="3"}`] != 4096 {
		t.Errorf("counter lost: %+v", back.Counters)
	}
	if back.Gauges["node_outbox_depth"] != 5 {
		t.Errorf("gauge lost: %+v", back.Gauges)
	}
	if back.Counters["node_frames_received_total"] != 17 {
		t.Errorf("counter lost: %+v", back.Counters)
	}
}

// TestHandlerFormats covers the HTTP surface: Prometheus text by default,
// JSON on request, and the JSON decoding back into a Snapshot.
func TestHandlerFormats(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_frames_total").Add(3)
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	text := string(body)
	if !strings.Contains(text, "# TYPE test_frames_total counter") ||
		!strings.Contains(text, "test_frames_total 3") {
		t.Errorf("prometheus text missing counter:\n%s", text)
	}

	res, err = srv.Client().Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["test_frames_total"] != 3 {
		t.Errorf("JSON snapshot = %+v", snap)
	}
}

// TestPublishExpvar covers the expvar surface: the registry appears under
// its name, and republishing the same name is a no-op instead of a panic.
func TestPublishExpvar(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_expvar_total").Add(11)
	reg.PublishExpvar("metrics_test_registry")
	reg.PublishExpvar("metrics_test_registry") // must not panic

	v := expvar.Get("metrics_test_registry")
	if v == nil {
		t.Fatal("registry not published")
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("expvar payload not a Snapshot: %v", err)
	}
	if snap.Counters["test_expvar_total"] != 11 {
		t.Errorf("expvar snapshot = %+v", snap)
	}
}

// BenchmarkCounterAdd pins the hot-path cost of Counter.Add; check.sh
// requires 0 allocs/op.
func BenchmarkCounterAdd(b *testing.B) {
	c := NewCounter()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
	if c.Value() == 0 {
		b.Fatal("counter never incremented")
	}
}
