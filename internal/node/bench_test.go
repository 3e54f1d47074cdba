package node

import (
	"context"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/piece"
	"repro/internal/tracing"
	"repro/internal/transport"
)

const (
	benchPieces    = 48
	benchPieceSize = 8 << 10
)

// benchCluster runs one full swarm download — a seed plus leechers-1 empty
// nodes on tr, full-mesh bootstrapped — and returns the wall-clock time and
// the total number of piece deliveries.
func benchCluster(b *testing.B, tr transport.Transport, listenAddr func(int) string, nodes int, extra ...ClusterOption) (time.Duration, int) {
	b.Helper()
	manifest, err := piece.SyntheticManifest(benchPieces, benchPieceSize)
	if err != nil {
		b.Fatal(err)
	}
	content := make([]byte, 0, manifest.FileSize)
	for i := 0; i < benchPieces; i++ {
		content = append(content, piece.SyntheticPiece(i, benchPieceSize)...)
	}
	opts := append([]ClusterOption{
		WithAlgorithm(algo.Altruism),
		WithTransport(tr),
		WithListenAddr(listenAddr),
		WithLeechers(nodes - 1),
		WithDecisionInterval(time.Millisecond),
	}, extra...)
	start := time.Now()
	c, err := StartCluster(manifest, content, opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := c.WaitAllCompleteContext(ctx); err != nil {
		b.Fatal(err)
	}
	return time.Since(start), (nodes - 1) * benchPieces
}

// benchThroughput runs benchCluster b.N times, each on a fresh network
// from newTransport, and reports completed piece deliveries across all
// leechers per wall-clock second.
func benchThroughput(b *testing.B, newTransport func() transport.Transport, listenAddr string, nodes int, extra ...ClusterOption) {
	var elapsed time.Duration
	var pieces int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, p := benchCluster(b, newTransport(), func(int) string { return listenAddr }, nodes, extra...)
		elapsed += d
		pieces += p
	}
	b.ReportMetric(float64(pieces)/elapsed.Seconds(), "pieces/sec")
}

func memTransport() transport.Transport { return transport.NewMem() }
func tcpTransport() transport.Transport { return transport.NewTCP() }

// BenchmarkClusterThroughput measures the live data path end to end: a full
// swarm download over the in-memory transport (the protocol/node hot path
// without kernel sockets) and over real TCP loopback, with the default
// signed receipts and per-node metrics. allocs/op is the headline the frame
// pooling and writer batching attack.
func BenchmarkClusterThroughput(b *testing.B) {
	b.Run("mem-32", func(b *testing.B) { benchThroughput(b, memTransport, "", 32) })
	b.Run("tcp-16", func(b *testing.B) { benchThroughput(b, tcpTransport, "127.0.0.1:0", 16) })
}

// BenchmarkClusterThroughputUnsigned is the same mem-32 swarm with
// attestation disabled: the trust-the-report configuration the signed
// default is compared against. Run both in one invocation so the signing
// overhead is a same-machine delta.
func BenchmarkClusterThroughputUnsigned(b *testing.B) {
	benchThroughput(b, memTransport, "", 32, WithoutAttestation())
}

// BenchmarkClusterThroughputTraced is the mem-32 swarm with causal tracing
// sampling one push in 32 — a realistic always-on production rate. Against
// the untraced run on the same machine the delta is the whole observed cost
// of tracing: span minting, clock reads in the write loop, wire
// trace-context extensions, continuation chains, and collector inserts.
func BenchmarkClusterThroughputTraced(b *testing.B) {
	benchThroughput(b, memTransport, "", 32,
		WithTracing(tracing.Config{SampleEvery: 32, Capacity: 1 << 13}))
}
