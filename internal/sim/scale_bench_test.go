package sim

import (
	"testing"

	"repro/internal/algo"
)

// BenchmarkSwarmLarge measures the full upload hot path with the holder-row
// interest answers and the incremental rarity index: a 5000-peer flash crowd over a
// 64 MB file (256 × 256 KB pieces) under BitTorrent, the mechanism with the
// densest per-decision neighbor scanning. One run drives roughly 1.3 million
// piece transfers; scripts/check.sh guards its allocs/op against
// per-decision regressions.
func BenchmarkSwarmLarge(b *testing.B) {
	cfg := Default(algo.BitTorrent, 5000, 256)
	cfg.Seed = 42
	cfg.Horizon = 4000
	b.ReportAllocs()
	var events float64
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
		events += float64(res.EventsProcessed)
	}
	b.ReportMetric(events/float64(b.N), "events/op")
}
