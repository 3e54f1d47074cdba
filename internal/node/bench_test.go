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

// benchFile is the file a benchmark swarm moves.
type benchFile struct{ pieces, pieceSize int }

// smallFile is the historical 48 x 8 KB shape: quick, but with so few pieces
// that no cost proportional to the pieces a receiver still wants can show.
var smallFile = benchFile{pieces: 48, pieceSize: 8 << 10}

// benchCluster runs one full swarm download of f — a seed plus nodes-1 empty
// nodes on tr, full-mesh bootstrapped — and returns the wall-clock time and
// the total number of piece deliveries.
func benchCluster(b *testing.B, tr transport.Transport, listenAddr func(int) string, nodes int, f benchFile, extra ...ClusterOption) (time.Duration, int) {
	b.Helper()
	manifest, err := piece.SyntheticManifest(f.pieces, f.pieceSize)
	if err != nil {
		b.Fatal(err)
	}
	content := make([]byte, 0, manifest.FileSize)
	for i := 0; i < f.pieces; i++ {
		content = append(content, piece.SyntheticPiece(i, f.pieceSize)...)
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
	return time.Since(start), (nodes - 1) * f.pieces
}

// benchThroughput runs benchCluster b.N times, each on a fresh network
// from newTransport, and reports completed piece deliveries across all
// leechers per wall-clock second.
func benchThroughput(b *testing.B, newTransport func() transport.Transport, listenAddr string, nodes int, f benchFile, extra ...ClusterOption) {
	var elapsed time.Duration
	var pieces int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, p := benchCluster(b, newTransport(), func(int) string { return listenAddr }, nodes, f, extra...)
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
// pooling and writer batching attack. The mem-16x4096x1K row is the
// swarm_mem_small shape of BENCHMARK.json, the one to profile (EXPERIMENTS.md
// has the command): with 4096 pieces outstanding, work done per wanted piece
// dominates there and is invisible in the 48-piece rows.
func BenchmarkClusterThroughput(b *testing.B) {
	b.Run("mem-32", func(b *testing.B) { benchThroughput(b, memTransport, "", 32, smallFile) })
	b.Run("tcp-16", func(b *testing.B) { benchThroughput(b, tcpTransport, "127.0.0.1:0", 16, smallFile) })
	b.Run("mem-16x4096x1K", func(b *testing.B) {
		benchThroughput(b, memTransport, "", 16, benchFile{pieces: 4096, pieceSize: 1 << 10})
	})
}

// BenchmarkClusterThroughputUnsigned is the same mem-32 swarm with
// attestation disabled: the trust-the-report configuration the signed
// default is compared against. Run both in one invocation so the signing
// overhead is a same-machine delta.
func BenchmarkClusterThroughputUnsigned(b *testing.B) {
	benchThroughput(b, memTransport, "", 32, smallFile, WithoutAttestation())
}

// BenchmarkClusterThroughputTraced is the mem-32 swarm with causal tracing
// sampling one push in 32 — a realistic always-on production rate. Against
// the untraced run on the same machine the delta is the whole observed cost
// of tracing: span minting, clock reads in the write loop, wire
// trace-context extensions, continuation chains, and collector inserts.
func BenchmarkClusterThroughputTraced(b *testing.B) {
	benchThroughput(b, memTransport, "", 32, smallFile,
		WithTracing(tracing.Config{SampleEvery: 32, Capacity: 1 << 13}))
}
