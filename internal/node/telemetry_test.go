package node

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/internal/algo"
	"repro/internal/piece"
	"repro/internal/transport"
)

// TestClusterMetricsHTTP runs a small swarm to completion and pins the
// acceptance contract: the getter's per-peer download counters, read over
// the /metrics HTTP surface in both formats, sum to exactly the content
// size, and /debug/swarm serves the peer table.
func TestClusterMetricsHTTP(t *testing.T) {
	c := newCluster(t, transport.NewMem(), memAddrs, algo.BitTorrent, 3, nil)
	for i, n := range c.nodes[1:] {
		if err := waitComplete(t, n, 20*time.Second); err != nil {
			t.Fatalf("leecher %d incomplete: %v", i+1, err)
		}
	}
	getter := c.nodes[1]
	srv := httptest.NewServer(MetricsMux(getter))
	defer srv.Close()

	// JSON snapshot: per-peer download bytes sum to the file size.
	res, err := srv.Client().Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	var perPeerSum int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "node_peer_download_bytes_total{") {
			perPeerSum += v
		}
	}
	if want := int64(len(c.content)); perPeerSum != want {
		t.Errorf("per-peer download sum = %d, want content size %d", perPeerSum, want)
	}
	if got := snap.Counters["node_credited_bytes_total"]; got != perPeerSum {
		t.Errorf("credited total %d != per-peer sum %d", got, perPeerSum)
	}
	if snap.Gauges["node_complete"] != 1 {
		t.Errorf("node_complete = %d, want 1", snap.Gauges["node_complete"])
	}
	if got := snap.Counters["node_pieces_verified_total"]; got != testPieces {
		t.Errorf("pieces verified = %d, want %d", got, testPieces)
	}

	// Prometheus text: same counters, text exposition.
	res, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "# TYPE node_peer_download_bytes_total counter") {
		t.Errorf("prometheus text missing per-peer family:\n%.500s", text)
	}

	// /debug/swarm: a complete node's table shows neighbors with nothing
	// left to exchange, once their last announcements (which ride the tick)
	// have landed.
	waitFor(t, "the neighbors' last announcements", func() bool {
		return !slices.ContainsFunc(getter.DebugSwarmInfo().Peers, func(p DebugPeer) bool { return p.TheyNeed != 0 })
	})
	res, err = srv.Client().Get(srv.URL + "/debug/swarm")
	if err != nil {
		t.Fatal(err)
	}
	var dbg DebugSwarm
	if err := json.NewDecoder(res.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if !dbg.Complete || dbg.Pieces != testPieces {
		t.Errorf("debug swarm = %+v, want complete with %d pieces", dbg, testPieces)
	}
	if len(dbg.Peers) == 0 {
		t.Error("debug swarm shows no peers on a running mesh")
	}
	if !slices.IsSortedFunc(dbg.Peers, func(a, b DebugPeer) int { return a.ID - b.ID }) {
		t.Errorf("debug swarm peers not in ascending ID order: %+v", dbg.Peers)
	}
	for _, p := range dbg.Peers {
		if p.INeed != 0 || p.TheyNeed != 0 {
			t.Errorf("complete node and peer %d still need %d and %d pieces of each other", p.ID, p.INeed, p.TheyNeed)
		}
		if p.InFlight != 0 {
			t.Errorf("peer %d holds every piece yet has %d in flight", p.ID, p.InFlight)
		}
	}

	// /debug/vars: the process's standard expvar page is still served.
	res, err = srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(res.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if _, ok := vars["memstats"]; !ok {
		t.Error("/debug/vars missing memstats")
	}
}

// TestStatsShim: Stats() reads the same counters Metrics() exposes, so the
// two views can never drift.
func TestStatsShim(t *testing.T) {
	c := newCluster(t, transport.NewMem(), memAddrs, algo.Altruism, 2, nil)
	for i, n := range c.nodes[1:] {
		if err := waitComplete(t, n, 20*time.Second); err != nil {
			t.Fatalf("leecher %d incomplete: %v", i+1, err)
		}
	}
	// Stats() and Metrics() are read at two instants; trailing Have and
	// receipt frames still flow after completion, so quiesce first (Stop
	// returns once every goroutine of the node has exited).
	c.stopAll()
	for _, n := range c.nodes {
		st := n.Stats()
		snap := n.Metrics()
		if int64(st.CreditedBytes) != snap.Counters["node_credited_bytes_total"] {
			t.Errorf("node %d: Stats credited %v != counter %d",
				st.ID, st.CreditedBytes, snap.Counters["node_credited_bytes_total"])
		}
		if int64(st.UploadedBytes) != snap.Counters["node_uploaded_bytes_total"] {
			t.Errorf("node %d: Stats uploaded %v != counter %d",
				st.ID, st.UploadedBytes, snap.Counters["node_uploaded_bytes_total"])
		}
		wantSent := snap.Counters[`node_frames_sent_total{class="control"}`] +
			snap.Counters[`node_frames_sent_total{class="bulk"}`]
		if st.FramesSent != wantSent {
			t.Errorf("node %d: Stats frames sent %d != class sum %d", st.ID, st.FramesSent, wantSent)
		}
		if st.FramesReceived != snap.Counters["node_frames_received_total"] {
			t.Errorf("node %d: Stats frames received %d != counter %d",
				st.ID, st.FramesReceived, snap.Counters["node_frames_received_total"])
		}
	}
	// The seed uploaded at least one full copy; a leecher credited exactly
	// one.
	if got := c.nodes[0].Stats().UploadedBytes; got < float64(len(c.content)) {
		t.Errorf("seed uploaded %v bytes, want >= %d", got, len(c.content))
	}
}

// updateGolden rewrites the golden files under testdata instead of
// comparing against them (go test ./internal/node -run 'Golden|Pinned' -update).
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got with testdata/name, or rewrites it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its golden file.\n-- got --\n%s\n-- want --\n%s", name, got, want)
	}
}

// TestNodeMetricsSeriesPinned pins the names a node serves on /metrics:
// every # TYPE line and every series of a leecher that finished a small
// signed cluster, values stripped and per-peer series collapsed into one
// {peer="N"} line. Renaming, dropping or adding a series changes the golden.
func TestNodeMetricsSeriesPinned(t *testing.T) {
	manifest, content := clusterFixture(t)
	c, err := StartCluster(manifest, content,
		WithAlgorithm(algo.BitTorrent),
		WithLeechers(3),
		WithDecisionInterval(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := c.WaitAllCompleteContext(ctx); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(MetricsMux(c.Nodes[1]))
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

	peerLabel := regexp.MustCompile(`\{peer="[0-9]+"\}`)
	var lines []string
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = peerLabel.ReplaceAllString(line[:strings.LastIndexByte(line, ' ')], `{peer="N"}`)
		}
		if len(lines) == 0 || lines[len(lines)-1] != line {
			lines = append(lines, line)
		}
	}
	checkGolden(t, "metrics_series.golden", strings.Join(lines, "\n")+"\n")
}

// TestMountedStoppedNodeIsCollectable: serving a node's telemetry must not
// keep the node, and the store it holds, alive past Stop. Once the mux is
// dropped nothing process-wide may still reach it. The ID is one no other
// test in the package serves, so any process-wide registration keyed by ID
// would be this node's.
func TestMountedStoppedNodeIsCollectable(t *testing.T) {
	manifest, _ := clusterFixture(t)
	n := fixtureNode(t, Config{ID: 41, Algorithm: algo.Altruism, Store: piece.NewStore(manifest)})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	MetricsMux(n).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if err := n.Stop(); err != nil {
		t.Fatal(err)
	}
	alive := weak.Make(n)
	n = nil
	deadline := time.Now().Add(500 * time.Millisecond)
	for alive.Value() != nil && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if alive.Value() != nil {
		t.Fatal("a stopped node whose telemetry was served is still reachable 500ms after Stop")
	}
}

// TestPrometheusGolden pins the text exposition format byte-for-byte
// against a golden file: family TYPE lines, baked-in label blocks, and
// the deterministic sort order.
func TestPrometheusGolden(t *testing.T) {
	snap := MetricsSnapshot{
		Counters: map[string]int64{
			"node_frames_received_total":               42,
			`node_frames_sent_total{class="bulk"}`:     30,
			`node_frames_sent_total{class="control"}`:  12,
			`node_peer_download_bytes_total{peer="0"}`: 8192,
			`node_peer_download_bytes_total{peer="2"}`: 4096,
		},
		Gauges: map[string]int64{"node_outbox_depth": 3},
	}
	var sb strings.Builder
	if err := snap.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "prometheus.golden", sb.String())
}

// TestSnapshotJSONRoundTrip pins the /metrics JSON contract: a snapshot
// marshals and decodes back into an equal MetricsSnapshot.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	snap := MetricsSnapshot{
		Counters: map[string]int64{
			`node_peer_download_bytes_total{peer="3"}`: 4096,
			"node_frames_received_total":               17,
		},
		Gauges: map[string]int64{"node_outbox_depth": 5},
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back MetricsSnapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(back.Counters, snap.Counters) || !maps.Equal(back.Gauges, snap.Gauges) {
		t.Errorf("round trip = %+v, want %+v", back, snap)
	}
}

// TestHandlerFormats covers /metrics format negotiation: Prometheus text by
// default, JSON for ?format=json and for an Accept header asking for it.
func TestHandlerFormats(t *testing.T) {
	manifest, _ := clusterFixture(t)
	n := fixtureNode(t, Config{Algorithm: algo.Altruism, Store: piece.NewStore(manifest)})
	n.metrics.framesIn.Add(3)
	mux := MetricsMux(n)
	get := func(url, accept string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", url, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec
	}

	rec := get("/metrics", "")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("default content type = %q", ct)
	}
	if text := rec.Body.String(); !strings.Contains(text, "# TYPE node_frames_received_total counter\n") ||
		!strings.Contains(text, "\nnode_frames_received_total 3\n") {
		t.Errorf("prometheus text missing counter:\n%s", text)
	}

	for _, tc := range []struct{ url, accept string }{
		{"/metrics?format=json", ""},
		{"/metrics", "application/json"},
		{"/metrics", "text/html, application/json;q=0.9"},
	} {
		rec := get(tc.url, tc.accept)
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s (Accept %q): content type = %q", tc.url, tc.accept, ct)
		}
		var snap MetricsSnapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatalf("%s (Accept %q): %v", tc.url, tc.accept, err)
		}
		if snap.Counters["node_frames_received_total"] != 3 || snap.Gauges["node_complete"] != 0 {
			t.Errorf("%s (Accept %q): snapshot = %+v", tc.url, tc.accept, snap)
		}
	}
}

// TestMetricsConcurrent hammers the per-peer download counters from
// GOMAXPROCS goroutines, several on each peer's first credit at once: the
// counters must lose nothing under -race, and every peer must land on one
// series.
func TestMetricsConcurrent(t *testing.T) {
	manifest, _ := clusterFixture(t)
	n := fixtureNode(t, Config{Algorithm: algo.Altruism, Store: piece.NewStore(manifest)})
	workers := runtime.GOMAXPROCS(0) * 2
	const perWorker, peers = 5000, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n.metrics.noteDownload(i%peers, 2)
			}
		}()
	}
	wg.Wait()

	snap := n.Metrics()
	if got, want := snap.Counters["node_credited_bytes_total"], int64(2*workers*perWorker); got != want {
		t.Errorf("credited = %d, want %d", got, want)
	}
	for p := 0; p < peers; p++ {
		name := fmt.Sprintf(`node_peer_download_bytes_total{peer="%d"}`, p)
		if got, want := snap.Counters[name], int64(2*workers*perWorker/peers); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
