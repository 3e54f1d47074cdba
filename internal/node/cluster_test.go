package node

import (
	"context"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/piece"
	"repro/internal/transport"
)

func clusterFixture(t *testing.T) (*piece.Manifest, []byte) {
	t.Helper()
	manifest, err := piece.SyntheticManifest(testPieces, testPieceSize)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 0, manifest.FileSize)
	for i := 0; i < testPieces; i++ {
		content = append(content, piece.SyntheticPiece(i, testPieceSize)...)
	}
	return manifest, content
}

func TestStartClusterValidation(t *testing.T) {
	manifest, content := clusterFixture(t)
	bad := []struct {
		name     string
		manifest *piece.Manifest
		content  []byte
		opts     []ClusterOption
	}{
		{"no manifest", nil, content, nil},
		{"no content", manifest, nil, nil},
		{"nil transport", manifest, content, []ClusterOption{WithTransport(nil)}},
		{"nil listen func", manifest, content, []ClusterOption{WithListenAddr(nil)}},
		{"negative leechers", manifest, content, []ClusterOption{WithLeechers(-1)}},
		{"nil identity func", manifest, content, []ClusterOption{WithIdentity(nil)}},
	}
	for _, tc := range bad {
		if _, err := StartCluster(tc.manifest, tc.content, tc.opts...); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestClusterLifecycle(t *testing.T) {
	manifest, content := clusterFixture(t)
	c, err := StartCluster(manifest, content,
		WithAlgorithm(algo.TChain),
		WithLeechers(3),
		WithFreeRiders(map[int]bool{3: true}),
		WithDecisionInterval(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	if c.Seed().ID() != 0 || len(c.Leechers()) != 3 {
		t.Fatalf("cluster shape wrong: seed %d, %d leechers", c.Seed().ID(), len(c.Leechers()))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := c.WaitAllCompleteContext(ctx); err != nil {
		t.Fatalf("compliant leechers did not complete: %v", err)
	}
	// The free-rider is excluded from WaitAllCompleteContext and holds nothing.
	if got := c.Nodes[3].Stats().Pieces; got != 0 {
		t.Errorf("T-Chain free-rider decrypted %d pieces", got)
	}
	if c.Ledger.Score(0) <= 0 {
		t.Error("seed earned no reputation")
	}
	// A full mesh on the session scheme: every witness neighbors the origin
	// over a keyed link, so no witness receipt needed the identity key. (The
	// seed seals too and needs nothing back, so forwards are the rule.)
	c.Stop()
	link := sumCounter(c, `node_attest_receipts_total{result="ok",scheme="link"}`)
	ed := sumCounter(c, `node_attest_receipts_total{result="ok",scheme="ed25519"}`)
	if link == 0 || ed != 0 {
		t.Errorf("verified witness receipts: %d link-keyed, %d Ed25519; want all of them link-keyed", link, ed)
	}
}

// TestClusterOverDegradedTransport runs a whole cluster over a transport
// that both drops 3% of data messages and delays every delivery by a random
// 1–5 ms: the recovery paths plus the flaky transport's in-order delay queue
// must still converge to a complete swarm.
func TestClusterOverDegradedTransport(t *testing.T) {
	manifest, content := clusterFixture(t)
	tr, err := transport.NewFlaky(transport.NewMem(),
		transport.WithDropProb(0.03),
		transport.WithLatency(time.Millisecond, 5*time.Millisecond),
		transport.WithDropSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartCluster(manifest, content,
		WithTransport(tr),
		WithLeechers(3),
		WithDecisionInterval(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
	defer cancel()
	if err := c.WaitAllCompleteContext(ctx); err != nil {
		t.Fatalf("cluster did not complete over degraded transport: %v", err)
	}
}

// TestClusterStopIdempotent drives a cluster through a full start/stop
// cycle and checks the Stop contract: repeat calls are safe and report the
// same (nil) error.
func TestClusterStopIdempotent(t *testing.T) {
	manifest, content := clusterFixture(t)
	c, err := StartCluster(manifest, content,
		WithAlgorithm(algo.Altruism),
		WithTransport(transport.NewMem()),
		WithLeechers(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Stop(); err != nil {
		t.Fatalf("first Stop: %v", err)
	}
	if err := c.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	// Stopping a member node directly is also idempotent.
	if err := c.Nodes[0].Stop(); err != nil {
		t.Fatalf("node re-Stop: %v", err)
	}
}
