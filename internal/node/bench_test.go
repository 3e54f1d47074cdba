package node

import (
	"context"
	"math/rand"
	"sync/atomic"
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

// benchRun is what one swarm download cost: its wall-clock time, the piece
// deliveries it made, and the swarm-wide Stats totals behind the two
// ratios bench/ calls node.frames_per_piece and node.useful_upload_share,
// and behind frames per writer drain.
type benchRun struct {
	elapsed            time.Duration
	pieces             int
	frames, drains     int64
	uploaded, credited float64
}

// benchCluster runs one full swarm download of f — a seed plus nodes-1 empty
// nodes on tr, full-mesh bootstrapped — timed from StartCluster to the last
// completion; the Stats totals are read once the swarm has stopped, when
// they are exact.
func benchCluster(b *testing.B, tr transport.Transport, listenAddr func(int) string, nodes int, f benchFile, extra ...ClusterOption) benchRun {
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
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	err = c.WaitAllCompleteContext(ctx)
	run := benchRun{elapsed: time.Since(start), pieces: (nodes - 1) * f.pieces}
	c.Stop()
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range c.Nodes {
		s := n.Stats()
		run.frames += s.FramesSent
		run.drains += s.Drains
		run.uploaded += s.UploadedBytes
		run.credited += s.CreditedBytes
	}
	return run
}

// benchThroughput runs benchCluster b.N times, each on a fresh network
// from newTransport, and reports completed piece deliveries across all
// leechers per wall-clock second, frames written per delivery, frames per
// writer drain (how well the outboxes coalesce: a drain is one flush), and
// the share of uploaded bytes that were a receiver's first copy.
func benchThroughput(b *testing.B, newTransport func() transport.Transport, listenAddr string, nodes int, f benchFile, extra ...ClusterOption) {
	var total benchRun
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run := benchCluster(b, newTransport(), func(int) string { return listenAddr }, nodes, f, extra...)
		total.elapsed += run.elapsed
		total.pieces += run.pieces
		total.frames += run.frames
		total.drains += run.drains
		total.uploaded += run.uploaded
		total.credited += run.credited
	}
	b.ReportMetric(float64(total.pieces)/total.elapsed.Seconds(), "pieces/sec")
	b.ReportMetric(float64(total.frames)/float64(total.pieces), "frames/piece")
	b.ReportMetric(float64(total.frames)/float64(total.drains), "frames/drain")
	b.ReportMetric(total.credited/total.uploaded, "useful-share")
}

func memTransport() transport.Transport { return transport.NewMem() }
func tcpTransport() transport.Transport { return transport.NewTCP() }

// BenchmarkClusterThroughput measures the live data path end to end: a full
// swarm download over the in-memory transport (the protocol/node hot path
// without kernel sockets) and over real TCP loopback, with the default
// signed receipts and per-node metrics. allocs/op is the headline the frame
// pooling and writer batching attack. The rows after tcp-16 are the four
// swarm workloads of BENCHMARK.json at their recorded shapes — swarm_mem_small,
// swarm_mem_bulk, swarm_tcp, swarm_tchain — and the ones to profile
// (EXPERIMENTS.md has the command): with thousands of pieces outstanding,
// work done per wanted piece dominates there and is invisible in the
// 48-piece rows.
func BenchmarkClusterThroughput(b *testing.B) {
	b.Run("mem-32", func(b *testing.B) { benchThroughput(b, memTransport, "", 32, smallFile) })
	b.Run("tcp-16", func(b *testing.B) { benchThroughput(b, tcpTransport, "127.0.0.1:0", 16, smallFile) })
	b.Run("mem-16x4096x1K", func(b *testing.B) {
		benchThroughput(b, memTransport, "", 16, benchFile{pieces: 4096, pieceSize: 1 << 10})
	})
	b.Run("mem-8x1024x64K", func(b *testing.B) {
		benchThroughput(b, memTransport, "", 8, benchFile{pieces: 1024, pieceSize: 64 << 10})
	})
	b.Run("tcp-8x4096x4K", func(b *testing.B) {
		benchThroughput(b, tcpTransport, "127.0.0.1:0", 8, benchFile{pieces: 4096, pieceSize: 4 << 10})
	})
	b.Run("tchain-8x4096x4K", func(b *testing.B) {
		benchThroughput(b, memTransport, "", 8, benchFile{pieces: 4096, pieceSize: 4 << 10}, WithAlgorithm(algo.TChain))
	})
}

// benchPieces and benchNeighbors are the swarm_mem_small shape the
// per-piece micro-benchmarks below run at: 4096 pieces, 15 neighbors.
const benchPieces, benchNeighbors = 4096, 15

// benchNode returns a node running a over an empty store of benchPieces,
// linked to peers 1..benchNeighbors over connections that swallow frames;
// no goroutine runs.
func benchNode(b *testing.B, a algo.Algorithm) *Node {
	manifest := &piece.Manifest{PieceSize: 1, FileSize: benchPieces, Hashes: make([]piece.Hash, benchPieces)}
	n, err := New(Config{Algorithm: a, Store: piece.NewStore(manifest), Transport: transport.NewMem()})
	if err != nil {
		b.Fatal(err)
	}
	for id := 1; id <= benchNeighbors; id++ {
		link(b, n, newRemote(n, id, nopConn{}, "", 0, 0))
	}
	return n
}

// BenchmarkAnnounceFanout is what one verified piece costs to announce on a
// node with 15 neighbors — the swarm_mem_small fan-out: one gain-log append
// and no per-link work, no writer woken. Indices start at 256 because boxing
// a smaller Have allocates nothing and would hide a per-neighbor frame.
// scripts/check.sh gates this at zero allocations.
func BenchmarkAnnounceFanout(b *testing.B) {
	n := benchNode(b, algo.Altruism)
	n.mu.Lock()
	defer n.mu.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := 256 + i%(benchPieces-256)
		n.noteGainedLocked(idx)
		// Forget the gain, so that b.N may exceed the file: no writer runs
		// here, and the log is only ever read from a link's cursor on.
		n.myBits.Clear(idx)
		n.gainLen.Store(0)
	}
}

// BenchmarkNodeDecision is one upload decision through the view tryUpload
// decides through: NextReceiver over 15 linked peers at 4096 pieces, which
// asks each link whether it holds a request of ours to serve and each
// neighbour's holdings whether it lacks a piece we hold. The rows are the
// answers that scan differs on: mid-download (half the pieces each, settled
// at the first word), the same with every other link holding no request,
// every peer lacking only a piece in the last word, and every peer complete
// — the idle tick, each scan the full length to say no. scripts/check.sh
// gates every row at zero allocations.
func BenchmarkNodeDecision(b *testing.B) {
	rows := []struct {
		name       string
		mine, peer func(i int) bool
		unasked    bool
	}{
		{"mid-download", func(i int) bool { return i%2 == 0 }, func(i int) bool { return i%4 < 2 }, false},
		{"unasked", func(i int) bool { return i%2 == 0 }, func(i int) bool { return i%4 < 2 }, true},
		{"last-word", func(int) bool { return true }, func(i int) bool { return i != benchPieces-1 }, false},
		{"complete", func(int) bool { return true }, func(int) bool { return true }, false},
	}
	for _, row := range rows {
		for _, a := range []algo.Algorithm{algo.Altruism, algo.BitTorrent} {
			b.Run(row.name+"/"+a.String(), func(b *testing.B) {
				n := benchNode(b, a)
				for i := 0; i < benchPieces; i++ {
					if row.mine(i) {
						n.myBits.Set(i)
					}
					if row.peer(i) {
						for _, r := range n.links {
							r.have.Set(i)
						}
					}
				}
				n.mu.Lock()
				defer n.mu.Unlock()
				for _, r := range n.links {
					if !row.unasked || r.id%2 != 0 {
						r.wants.n = 1 // which piece it asked for is not the decision's business
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n.strategy.NextReceiver(uploadView{nodeView{n}})
				}
			})
		}
	}
}

// BenchmarkRequestPick is the requester's per-link work: one link's request
// queue refilled with maxInFlight rarest-first picks over the node's
// availability (15 links, 4096 pieces, we hold every fourth piece and each
// link a random half), and the new requests copied to the request log for
// the link's writer. Each round returns the link's requests to the pool
// first and drains its window as a writer would. The log's 4 KB blocks are
// its only allocations, one per 128 refills, so scripts/check.sh gates it at
// zero allocations a refill.
func BenchmarkRequestPick(b *testing.B) {
	n := benchNode(b, algo.Altruism)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < benchPieces; i++ {
		if i%4 == 0 {
			n.myBits.Set(i)
		}
		for _, r := range n.links {
			if rng.Intn(2) == 0 {
				r.have.Set(i)
			}
		}
	}
	n.request(0) // builds the availability and fills every queue
	n.mu.Lock()
	defer n.mu.Unlock()
	r := n.links[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range r.asked.q[:r.asked.n] {
			n.pending.Clear(int(a.idx))
		}
		r.asked.n, r.requests = 0, nil
		n.askLocked(r, 0)
	}
}

// BenchmarkNoteDownload credits one verified piece from an already-seen
// sender: the per-peer map lookup under peerMu plus two atomic adds, on the
// path every first delivery takes with n.mu held. check.sh requires
// 0 allocs/op; only a sender's first credit allocates its counter.
func BenchmarkNoteDownload(b *testing.B) {
	const senders = 15
	m := &nodeMetrics{peerDown: make(map[int]*atomic.Int64)}
	for id := 0; id < senders; id++ {
		m.noteDownload(id, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.noteDownload(i%senders, 4096)
	}
}

// BenchmarkClusterThroughputUnsigned is the same mem-32 swarm with
// attestation disabled: the trust-the-report configuration the signed
// default is compared against. Run both in one invocation so the signing
// overhead is a same-machine delta; the row carries the signed row's name
// so that -bench '^BenchmarkClusterThroughput(Unsigned)?$/^mem-32$' selects
// exactly the pair.
func BenchmarkClusterThroughputUnsigned(b *testing.B) {
	b.Run("mem-32", func(b *testing.B) { benchThroughput(b, memTransport, "", 32, smallFile, WithoutAttestation()) })
}

// BenchmarkClusterThroughputTraced is the mem-32 swarm with causal tracing
// sampling one push in 32 — a realistic always-on production rate. Against
// the untraced run on the same machine the delta is the whole observed cost
// of tracing: span minting, clock reads in the write loop, wire
// trace-context extensions, continuation chains, and collector inserts.
func BenchmarkClusterThroughputTraced(b *testing.B) {
	b.Run("mem-32", func(b *testing.B) {
		benchThroughput(b, memTransport, "", 32, smallFile,
			WithTracing(tracing.Config{SampleEvery: 32, Capacity: 1 << 13}))
	})
}
