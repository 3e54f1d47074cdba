package node

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/metrics"
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
	var snap metrics.Snapshot
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
	// left to exchange.
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
	for _, p := range dbg.Peers {
		if p.INeed != 0 {
			t.Errorf("complete node still needs %d pieces from peer %d", p.INeed, p.ID)
		}
	}

	// /debug/vars: the expvar surface carries the registry too.
	res, err = srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(res.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if _, ok := vars["node_1"]; !ok {
		t.Error("expvar missing node_1 registry")
	}
}

// TestStatsShim pins satellite 1: Stats() reads the same counters the
// registry exposes, so the two views can never drift.
func TestStatsShim(t *testing.T) {
	c := newCluster(t, transport.NewMem(), memAddrs, algo.Altruism, 2, nil)
	for i, n := range c.nodes[1:] {
		if err := waitComplete(t, n, 20*time.Second); err != nil {
			t.Fatalf("leecher %d incomplete: %v", i+1, err)
		}
	}
	// Stats() and Snapshot() are read at two instants; trailing Have and
	// receipt frames still flow after completion, so quiesce first (Stop
	// returns once every goroutine of the node has exited).
	c.stopAll()
	for _, n := range c.nodes {
		st := n.Stats()
		snap := n.Metrics().Snapshot()
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
