package metrics

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden regenerates testdata/prometheus.golden instead of
// comparing against it (go test ./internal/metrics -update).
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestPrometheusGolden pins the text exposition format byte-for-byte
// against a golden file: family TYPE lines, baked-in label blocks, and
// the deterministic sort order.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("node_frames_received_total").Add(42)
	reg.Counter(`node_frames_sent_total{class="bulk"}`).Add(30)
	reg.Counter(`node_frames_sent_total{class="control"}`).Add(12)
	reg.Counter(`node_peer_download_bytes_total{peer="0"}`).Add(8192)
	reg.Counter(`node_peer_download_bytes_total{peer="2"}`).Add(4096)
	reg.RegisterGaugeFunc("node_outbox_depth", func() int64 { return 3 })

	var sb strings.Builder
	if err := reg.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	goldenPath := filepath.Join("testdata", "prometheus.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("prometheus exposition drifted from golden file.\n-- got --\n%s\n-- want --\n%s", got, want)
	}
}
