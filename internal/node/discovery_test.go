package node

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/piece"
	"repro/internal/transport"
)

// discoveryDegreeOK asserts the hard degree bound for every running node.
func discoveryDegreeOK(t *testing.T, nodes []*Node, maxDegree int) {
	t.Helper()
	for _, n := range nodes {
		if got := n.Stats().Neighbors; got > maxDegree {
			t.Errorf("node %d degree %d exceeds max %d", n.ID(), got, maxDegree)
		}
	}
}

// TestDiscoverySwarmAllAlgorithms: a DHT-wired swarm (every node bootstraps
// off at most three contacts, degree-bounded partial mesh) must complete
// under every mechanism that can initiate uploads, exactly like the full
// mesh does. (Pure reciprocity stalls by design — Lemma 2 — on any
// topology.)
func TestDiscoverySwarmAllAlgorithms(t *testing.T) {
	for _, a := range []algo.Algorithm{algo.Altruism, algo.BitTorrent, algo.FairTorrent, algo.Reputation, algo.TChain} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			t.Parallel()
			manifest, content := clusterFixture(t)
			c, err := StartCluster(manifest, content,
				WithAlgorithm(a),
				WithLeechers(12),
				WithTopology(Discovery(8, 4)),
				WithDecisionInterval(2*time.Millisecond),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
			defer cancel()
			if err := c.WaitAllCompleteContext(ctx); err != nil {
				t.Fatalf("discovery swarm under %v did not complete: %v", a, err)
			}
			discoveryDegreeOK(t, c.Nodes, 8) // max = 2*target
		})
	}
}

// TestDiscoveryDegreeBounded: in a 40-node discovered swarm the partial
// mesh must stay strictly degree-bounded — nobody's neighbor set approaches
// N-1 — while routing tables grow well past the bootstrap set and the
// download still completes.
func TestDiscoveryDegreeBounded(t *testing.T) {
	manifest, content := clusterFixture(t)
	const leechers = 39
	c, err := StartCluster(manifest, content,
		WithLeechers(leechers),
		WithTopology(Discovery(8, 6)),
		WithDecisionInterval(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.WaitAllCompleteContext(ctx); err != nil {
		t.Fatalf("discovered swarm did not complete: %v", err)
	}
	discoveryDegreeOK(t, c.Nodes, 12)
	// Convergence: most nodes route far more of the swarm than the three
	// contacts they bootstrapped from.
	converged := 0
	for _, n := range c.Nodes {
		if n.RoutingTable().Size() > maxBootstrapSeeds {
			converged++
		}
	}
	if converged < len(c.Nodes)*3/4 {
		t.Errorf("only %d/%d routing tables grew past the bootstrap set", converged, len(c.Nodes))
	}
	// Full-mesh nodes have no routing table at all.
	if c.Nodes[0].RoutingTable() == nil {
		t.Error("discovery node reports no routing table")
	}
}

// TestDiscoveryChurn64: a 64-node swarm on a lossy, laggy transport, with
// 20% of the leechers replaced mid-download (stop 13, join 13). Survivors
// and joiners must all complete, the degree bound must hold throughout, and
// tearing everything down must leak no goroutines. Run under -race this is
// the discovery subsystem's integration gate (scripts/check.sh runs it by
// name).
func TestDiscoveryChurn64(t *testing.T) {
	manifest, content := clusterFixture(t)
	before := runtime.NumGoroutine()

	tr, err := transport.NewFlaky(transport.NewMem(),
		transport.WithDropProb(0.02),
		transport.WithLatency(time.Millisecond, 3*time.Millisecond),
		transport.WithDropSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	const leechers = 63
	c, err := StartCluster(manifest, content,
		WithTransport(tr),
		WithLeechers(leechers),
		WithTopology(Discovery(8, 6)),
		WithDecisionInterval(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Let the swarm wire up and start downloading, then churn: every fifth
	// leecher leaves (node IDs 5, 10, ..., 65 minus the seed) and a fresh
	// one joins in its place.
	time.Sleep(500 * time.Millisecond)
	stopped := make(map[int]bool)
	for i := 5; i <= leechers && len(stopped) < 13; i += 4 {
		if err := c.Nodes[i].Stop(); err != nil {
			t.Fatalf("stopping node %d: %v", i, err)
		}
		stopped[i] = true
	}
	joined := make([]*Node, 0, len(stopped))
	for range stopped {
		n, err := c.Join()
		if err != nil {
			t.Fatalf("join: %v", err)
		}
		joined = append(joined, n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	for i, n := range c.Nodes {
		if i == 0 || stopped[i] {
			continue
		}
		if err := n.WaitCompleteContext(ctx); err != nil {
			st := n.Stats()
			t.Fatalf("survivor %d did not complete: %v (pieces %d, neighbors %d, table %d)",
				n.ID(), err, st.Pieces, st.Neighbors, n.RoutingTable().Size())
		}
	}
	if len(joined) != 13 {
		t.Fatalf("joined %d nodes, want 13", len(joined))
	}

	live := make([]*Node, 0, len(c.Nodes))
	for i, n := range c.Nodes {
		if i != 0 && stopped[i] {
			continue
		}
		live = append(live, n)
	}
	discoveryDegreeOK(t, live, 12)
	converged := 0
	for _, n := range live {
		if n.RoutingTable().Size() > maxBootstrapSeeds {
			converged++
		}
	}
	if converged < len(live)*3/4 {
		t.Errorf("only %d/%d routing tables grew past the bootstrap set", converged, len(live))
	}

	if err := c.Stop(); err != nil {
		t.Fatalf("cluster stop: %v", err)
	}
	// Stop returns after every node's WaitGroup drains, but the flaky
	// transport's per-connection dispatchers exit asynchronously on close —
	// poll briefly before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after Stop; stacks:\n%s", before, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDiscoveryTChainLateJoiner: a node that wires into a T-Chain swarm
// only after everyone else has finished hits the protocol's nastiest
// corner. Every neighbor is complete, so sealed pieces keep arriving but
// no reciprocation is possible — the origins need nothing, and no witness
// lacks any piece — so no key is ever released and no trust is ever
// earned. The joiner's bootstrap set deliberately excludes the
// plaintext-serving seed and its target degree equals the bootstrap size,
// leaving starvation rewiring as the only way out: detect zero progress,
// widen past TargetDegree, and rotate links until one lands on the seed.
func TestDiscoveryTChainLateJoiner(t *testing.T) {
	manifest, content := clusterFixture(t)
	tr := transport.NewMem()
	c, err := StartCluster(manifest, content,
		WithTransport(tr),
		WithAlgorithm(algo.TChain),
		WithLeechers(8),
		WithTopology(Discovery(8, 4)),
		WithDecisionInterval(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
	defer cancel()
	if err := c.WaitAllCompleteContext(ctx); err != nil {
		t.Fatalf("base swarm did not complete: %v", err)
	}

	joiner, err := New(Config{
		ID:               100,
		Algorithm:        algo.TChain,
		Store:            piece.NewStore(manifest),
		Transport:        tr,
		Bootstrap:        []string{c.Nodes[3].Addr(), c.Nodes[4].Addr(), c.Nodes[5].Addr()},
		DecisionInterval: 2 * time.Millisecond,
		Discover:         &DiscoverConfig{K: 8, TargetDegree: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := joiner.Start(); err != nil {
		t.Fatal(err)
	}
	defer joiner.Stop()
	jctx, jcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer jcancel()
	if err := joiner.WaitCompleteContext(jctx); err != nil {
		st := joiner.Stats()
		t.Fatalf("late joiner never completed: %v (pieces %d, neighbors %d, sealed pending %d)",
			err, st.Pieces, st.Neighbors, st.SealedPending)
	}
}

// TestClusterJoin: nodes attached to a running discovered swarm bootstrap
// off the same few contacts, find the swarm, and complete.
func TestClusterJoin(t *testing.T) {
	manifest, content := clusterFixture(t)
	c, err := StartCluster(manifest, content,
		WithLeechers(8),
		WithTopology(Discovery(8, 4)),
		WithDecisionInterval(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	joined := make([]*Node, 0, 4)
	for i := 0; i < 4; i++ {
		n, err := c.Join()
		if err != nil {
			t.Fatal(err)
		}
		joined = append(joined, n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
	defer cancel()
	if err := c.WaitAllCompleteContext(ctx); err != nil {
		t.Fatalf("swarm with joiners did not complete: %v", err)
	}
	for _, n := range joined {
		if !n.Stats().Complete {
			t.Errorf("joiner %d incomplete", n.ID())
		}
	}
	// Join after Stop must refuse.
	c.Stop()
	if _, err := c.Join(); err == nil {
		t.Error("Join on a stopped cluster succeeded")
	}
}

// BenchmarkDiscoveryConvergence256 is discovery at swarm scale: a 256-node
// cluster bootstrapped from three contacts, timed from start until the DHT
// has wired every node (degree >= 1), reported as s/wire, and until every
// leecher completes the download, reported as s/complete.
func BenchmarkDiscoveryConvergence256(b *testing.B) {
	manifest, err := piece.SyntheticManifest(testPieces, testPieceSize)
	if err != nil {
		b.Fatal(err)
	}
	content := make([]byte, 0, manifest.FileSize)
	for i := 0; i < testPieces; i++ {
		content = append(content, piece.SyntheticPiece(i, testPieceSize)...)
	}
	for i := 0; i < b.N; i++ {
		start := time.Now()
		c, err := StartCluster(manifest, content,
			WithLeechers(255),
			WithTopology(Discovery(16, 8)),
			WithDecisionInterval(5*time.Millisecond),
		)
		if err != nil {
			b.Fatal(err)
		}
		wireDeadline := time.Now().Add(60 * time.Second)
		for {
			wired := 0
			for _, n := range c.Nodes {
				if n.Stats().Neighbors >= 1 {
					wired++
				}
			}
			if wired == len(c.Nodes) {
				break
			}
			if time.Now().After(wireDeadline) {
				c.Stop()
				b.Fatalf("only %d/%d nodes wired after 60s", wired, len(c.Nodes))
			}
			time.Sleep(10 * time.Millisecond)
		}
		b.ReportMetric(time.Since(start).Seconds(), "s/wire")
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		if err := c.WaitAllCompleteContext(ctx); err != nil {
			cancel()
			c.Stop()
			b.Fatal(err)
		}
		cancel()
		b.ReportMetric(time.Since(start).Seconds(), "s/complete")
		c.Stop()
	}
}
