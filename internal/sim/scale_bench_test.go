package sim

import (
	"testing"

	"repro/internal/algo"
)

// largeConfig is the scale benchmark's shape: a 5000-peer flash crowd over a
// 64 MB file (256 × 256 KB pieces) under BitTorrent, the mechanism with the
// densest per-decision neighbor scanning. One full run at this scale drives
// roughly 1.3 million piece transfers through the upload hot path.
func largeConfig() Config {
	cfg := Default(algo.BitTorrent, 5000, 256)
	cfg.Seed = 42
	cfg.Horizon = 4000
	return cfg
}

// runScaleBench executes one full large-swarm run and reports per-transfer
// allocation metrics alongside the standard per-op numbers.
func runScaleBench(b *testing.B, cfg Config) {
	b.Helper()
	b.ReportAllocs()
	var transfers float64
	for i := 0; i < b.N; i++ {
		sw, err := NewSwarm(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sw.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.CompletionFraction() < 0.99 {
			b.Fatalf("only %.1f%% of compliant peers completed; scale config too tight",
				100*res.CompletionFraction())
		}
		transfers += float64(res.EventsProcessed)
	}
	b.ReportMetric(transfers/float64(b.N), "events/op")
}

// BenchmarkSwarmLarge measures the full upload hot path at 5000 peers ×
// 256 pieces with the incremental interest and rarity indexes enabled.
// scripts/bench.sh scale records it in BENCH_scale.json, and
// scripts/check.sh guards its allocs/op against per-decision regressions.
func BenchmarkSwarmLarge(b *testing.B) {
	runScaleBench(b, largeConfig())
}

// BenchmarkSwarmLargeNaive runs the identical swarm through the pre-index
// reference paths (full bitfield scans per interest query, MissingFrom
// allocation per piece pick). Both benchmarks produce byte-identical runs;
// the ratio between them is the tentpole's recorded win.
func BenchmarkSwarmLargeNaive(b *testing.B) {
	cfg := largeConfig()
	cfg.naiveScan = true
	runScaleBench(b, cfg)
}
