// Trace swarm: run an in-process swarm with causal tracing on, then
// explain where the slowest pieces spent their time. Every sampled push
// is followed across the wire — request.queued → outbox.wait → wire.send
// on the uploader, wire.recv → store.verify → attest.sign → ledger.credit
// on the receiver, continuing hop by hop as the piece is re-uploaded — so
// the k slowest traces print as cross-node span trees, and the full span
// set lands in a Chrome trace-event file for chrome://tracing or
// ui.perfetto.dev.
//
//	go run ./examples/traceswarm
//	go run ./examples/traceswarm -nodes 32 -k 3 -out trace.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/algo"
	"repro/internal/node"
	"repro/internal/piece"
	"repro/internal/tracing"
	"repro/internal/transport"
)

func main() {
	nodes := flag.Int("nodes", 32, "swarm size including the seed")
	pieces := flag.Int("pieces", 48, "file pieces of 8 KB each")
	sample := flag.Int("sample", 1, "trace one push in N (1 = trace everything)")
	k := flag.Int("k", 3, "print the k slowest piece traces")
	out := flag.String("out", "trace.json", "Chrome trace-event output file (empty = skip)")
	flag.Parse()

	if err := run(os.Stdout, *nodes, *pieces, *sample, *k, *out); err != nil {
		fmt.Fprintf(os.Stderr, "traceswarm: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, nodes, numPieces, sample, k int, out string) error {
	if nodes < 2 {
		return fmt.Errorf("need at least 2 nodes, got %d", nodes)
	}
	const pieceSize = 8 << 10
	manifest, err := piece.SyntheticManifest(numPieces, pieceSize)
	if err != nil {
		return err
	}
	content := make([]byte, 0, manifest.FileSize)
	for i := 0; i < numPieces; i++ {
		content = append(content, piece.SyntheticPiece(i, pieceSize)...)
	}

	fmt.Fprintf(w, "swarm: %d nodes, %d pieces, tracing 1 in %d pushes\n", nodes, numPieces, sample)
	start := time.Now()
	c, err := node.StartCluster(manifest, content,
		node.WithAlgorithm(algo.Altruism),
		node.WithTransport(transport.NewMem()),
		node.WithLeechers(nodes-1),
		node.WithDecisionInterval(time.Millisecond),
		node.WithTracing(tracing.Config{SampleEvery: sample, Capacity: 1 << 17}),
	)
	if err != nil {
		return err
	}
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := c.WaitAllCompleteContext(ctx); err != nil {
		return err
	}
	fmt.Fprintf(w, "download complete in %v\n\n", time.Since(start).Round(time.Millisecond))

	spans, dropped := c.Tracer.Snapshot()
	traces := tracing.Traces(spans)
	fmt.Fprintf(w, "collected %d spans in %d traces (%d dropped)\n", len(spans), len(traces), dropped)
	if dropped > 0 {
		fmt.Fprintln(w, "note: the ring overflowed; the slowest traces may be incomplete")
	}

	fmt.Fprintf(w, "\n%d slowest piece traces:\n\n", min(k, len(traces)))
	for i, t := range traces {
		if i >= k {
			break
		}
		if err := tracing.RenderTree(w, t); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := tracing.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s — load it in chrome://tracing or ui.perfetto.dev\n", out)
	return nil
}
