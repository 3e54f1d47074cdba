package metrics

import (
	"encoding/json"
	"expvar"
	"io"
	"math"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestMetricsConcurrent hammers one counter and one histogram from
// GOMAXPROCS goroutines and asserts the merged totals — the sharded
// write path must lose nothing under -race.
func TestMetricsConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total")
	h := reg.Histogram("test_latency_ns")

	workers := runtime.GOMAXPROCS(0)
	const perWorker = 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(2)
				h.Observe(int64(i%1000 + 1))
			}
		}(w)
	}
	wg.Wait()

	total := int64(workers) * perWorker
	if got := c.Value(); got != 2*total {
		t.Errorf("counter = %d, want %d", got, 2*total)
	}
	hs := h.Snapshot()
	if hs.Count != uint64(total) {
		t.Errorf("histogram count = %d, want %d", hs.Count, total)
	}
	var bucketSum uint64
	for _, n := range hs.Buckets {
		bucketSum += n
	}
	if bucketSum != hs.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, hs.Count)
	}

	snap := reg.Snapshot()
	if snap.Counters["test_ops_total"] != 2*total {
		t.Errorf("snapshot counter = %d, want %d", snap.Counters["test_ops_total"], 2*total)
	}
	if snap.Histograms["test_latency_ns"].Count != uint64(total) {
		t.Errorf("snapshot histogram count = %d", snap.Histograms["test_latency_ns"].Count)
	}
}

// TestRegistryGetOrCreate pins the idempotent lookup contract: same name,
// same metric.
func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("x") != reg.Counter("x") {
		t.Error("Counter not idempotent")
	}
	if reg.Histogram("z") != reg.Histogram("z") {
		t.Error("Histogram not idempotent")
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

// TestHistogramBuckets pins the log₂ bucket boundaries.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1 << 40, 41}}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	if got := BucketUpperBound(0); got != 0 {
		t.Errorf("BucketUpperBound(0) = %g", got)
	}
	if got := BucketUpperBound(3); got != 7 {
		t.Errorf("BucketUpperBound(3) = %g, want 7", got)
	}
	if !math.IsInf(BucketUpperBound(64), 1) {
		t.Error("BucketUpperBound(64) not +Inf")
	}
}

// TestHistogramQuantile sanity-checks the interpolated quantiles against
// a uniform fill: estimates must land within the 2× log-bucket error.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 1024; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.Mean(); math.Abs(got-512.5) > 0.01 {
		t.Errorf("mean = %g, want 512.5", got)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 1024
		got := s.Quantile(q)
		if got < want/2 || got > want*2 {
			t.Errorf("q%g = %g, want within 2x of %g", q, got, want)
		}
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty snapshot quantile/mean not 0")
	}
}

// TestSnapshotJSONRoundTrip pins the /metrics JSON contract: a snapshot
// marshals and decodes back into an equal Snapshot.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`node_peer_upload_bytes_total{peer="3"}`).Add(4096)
	reg.Counter("node_frames_received_total").Add(17)
	reg.RegisterGaugeFunc("node_outbox_depth", func() int64 { return 5 })
	h := reg.Histogram("node_span_want_to_verified_ns")
	h.Observe(1500)
	h.Observe(90000)

	snap := reg.Snapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters[`node_peer_upload_bytes_total{peer="3"}`] != 4096 {
		t.Errorf("counter lost: %+v", back.Counters)
	}
	if back.Gauges["node_outbox_depth"] != 5 {
		t.Errorf("gauge lost: %+v", back.Gauges)
	}
	hb := back.Histograms["node_span_want_to_verified_ns"]
	if hb.Count != 2 || hb.Sum != 91500 {
		t.Errorf("histogram lost: %+v", hb)
	}
	if len(hb.Buckets) != len(snap.Histograms["node_span_want_to_verified_ns"].Buckets) {
		t.Error("bucket slice changed across round trip")
	}
}

// TestHandlerFormats covers the HTTP surface: Prometheus text by default,
// JSON on request, and the JSON decoding back into a Snapshot.
func TestHandlerFormats(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_frames_total").Add(3)
	reg.Histogram("test_ns").Observe(5)
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

// BenchmarkHistogramObserve pins the hot-path cost of Histogram.Observe;
// check.sh requires 0 allocs/op.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(0)
		for pb.Next() {
			v++
			h.Observe(v)
		}
	})
	if h.Snapshot().Count == 0 {
		b.Fatal("histogram never observed")
	}
}
