package node

import (
	"context"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/piece"
)

// TestNoDuplicateUploads: each piece a node wants is asked of one link at a
// time, so a swarm moves almost no piece to a node twice. A seeded 8-node
// Mem cluster moves 256 pieces of 1 KB under Altruism and under T-Chain, and
// ends with the bytes verified a second time (a piece a node already held)
// at most 5 % of the bytes credited. A sender that picks what to push
// cannot see what other senders have on the way, and wasted a quarter.
func TestNoDuplicateUploads(t *testing.T) {
	for _, a := range []algo.Algorithm{algo.Altruism, algo.TChain} {
		t.Run(a.String(), func(t *testing.T) {
			manifest, err := piece.SyntheticManifest(256, 1<<10)
			if err != nil {
				t.Fatal(err)
			}
			content := make([]byte, 0, manifest.FileSize)
			for i := 0; i < 256; i++ {
				content = append(content, piece.SyntheticPiece(i, 1<<10)...)
			}
			c, err := StartCluster(manifest, content,
				WithAlgorithm(a),
				WithLeechers(7),
				WithDecisionInterval(time.Millisecond),
			)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			err = c.WaitAllCompleteContext(ctx)
			c.Stop()
			if err != nil {
				t.Fatal(err)
			}
			var duplicate, credited int64
			for _, n := range c.Nodes {
				counters := n.Metrics().Counters
				duplicate += counters["node_duplicate_piece_bytes_total"]
				credited += counters["node_credited_bytes_total"]
			}
			if credited != 7*int64(manifest.FileSize) || 20*duplicate > credited {
				t.Errorf("%d duplicate bytes against %d credited (want the file 7 times, and at most 5 %% more)", duplicate, credited)
			}
		})
	}
}
