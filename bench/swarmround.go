package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/node"
	"repro/internal/piece"
	"repro/internal/transport"
)

// downloadDeadline fails a leecher's download; a healthy round takes about a
// second.
const downloadDeadline = 120 * time.Second

// creditGrace is how long after the last completion the swarm's credited
// bytes may take to reach the file size before the round fails.
const creditGrace = 5 * time.Second

// decisionInterval is the upload-scheduler tick every swarm workload uses.
// uploadLoop sends at most pacingBurst pieces per tick, which caps a node at
// pacingBurst/decisionInterval pieces a second (node.pacing_share).
const (
	decisionInterval = time.Millisecond
	pacingBurst      = 8
)

// swarmContent generates a round's file from the seed: distinct bytes every
// round, the same bytes for the same (seed, round).
func swarmContent(w workload, seed int64, idx int) []byte {
	content := make([]byte, w.pieces*w.pieceSize)
	rand.New(rand.NewSource(seed*1009 + int64(idx))).Read(content)
	return content
}

// firstDifference compares every piece st holds with content and returns
// the first that is missing or different, or -1. It reads pieces in place:
// Assemble would copy the whole file once per leecher, and on the bulk
// workload that garbage, not the program, would set max_rss_mib.
func firstDifference(st *piece.Store, content []byte, pieceSize int) (int, error) {
	for i := 0; i*pieceSize < len(content); i++ {
		got, err := st.GetRef(i)
		if err != nil || !bytes.Equal(got, content[i*pieceSize:min((i+1)*pieceSize, len(content))]) {
			return i, err
		}
	}
	return -1, nil
}

// swarmRound moves one generated file from a seed to every leecher of a
// fresh full-mesh cluster. The swarm is its own closed-loop load generator:
// a node's next push waits on outbox room. Set-up is content + manifest
// generation + StartCluster; the measured section starts at the
// StartCluster call (pieces already flow while later nodes join, so the two
// overlap) and ends when the last leecher completes.
func swarmRound(w workload, seed int64, idx int, rec *recorder) round {
	leechers := w.leechers()
	r := round{Attempted: leechers}
	root := rec.begin("round", 0, 0, idx)
	defer rec.end(root)

	t0 := time.Now()
	content := swarmContent(w, seed, idx)
	manifest, err := piece.NewManifest(content, w.pieceSize)
	if err != nil {
		r.fail(leechers, fmt.Sprintf("NewManifest: %v", err))
		return r
	}
	generated := time.Since(t0).Seconds()

	var tr transport.Transport = transport.NewMem()
	addr := ""
	if w.tcp {
		tr, addr = transport.NewTCP(), "127.0.0.1:0"
	}
	done := r.section()
	t1 := time.Now()
	id := rec.begin("node.StartCluster", root, 0, idx)
	c, err := node.StartCluster(manifest, content,
		node.WithAlgorithm(w.mech),
		node.WithTransport(tr),
		node.WithListenAddr(func(int) string { return addr }),
		node.WithLeechers(leechers),
		node.WithDecisionInterval(decisionInterval),
	)
	rec.end(id)
	if err != nil {
		r.fail(leechers, fmt.Sprintf("StartCluster: %v", err))
		return r
	}
	r.StartS = time.Since(t1).Seconds()
	r.SetupS = generated + r.StartS

	ctx, cancel := context.WithTimeout(context.Background(), downloadDeadline)
	defer cancel()
	nodes := c.Leechers()
	waitErrs := make([]error, len(nodes))
	r.Completions = make([]float64, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := rec.begin("node.WaitCompleteContext", root, i+1, idx)
			waitErrs[i] = n.WaitCompleteContext(ctx)
			rec.end(id)
			r.Completions[i] = time.Since(t1).Seconds()
		}()
	}
	wg.Wait()
	done()

	// Output checks, outside the measured section.
	for i, n := range nodes {
		if waitErrs[i] != nil {
			r.fail(1, fmt.Sprintf("node %d: %v", n.ID(), waitErrs[i]))
			continue
		}
		if at, err := firstDifference(n.StoreHandle(), content, w.pieceSize); at >= 0 {
			r.fail(1, fmt.Sprintf("node %d: piece %d differs from the content (err %v)", n.ID(), at, err))
		}
	}
	// A node credits a piece just after storing it, so the last credits can
	// trail the completions by a moment: give them creditGrace to land.
	want := float64(leechers * len(content))
	for deadline := time.Now().Add(creditGrace); ; time.Sleep(time.Millisecond) {
		r.Frames, r.Uploaded, r.Credited = 0, 0, 0
		for _, n := range c.Nodes {
			s := n.Stats()
			r.Frames += s.FramesSent
			r.Uploaded += s.UploadedBytes
			r.Credited += s.CreditedBytes
		}
		if r.Failed > 0 || r.Credited >= want || time.Now().After(deadline) {
			break
		}
	}
	if r.Failed == 0 && r.Credited != want {
		r.fail(leechers, fmt.Sprintf("credited %.0f bytes, want %.0f", r.Credited, want))
	}
	for peer, st := range c.Ledger.Snapshot() {
		if st.Invalid > 0 {
			r.fail(leechers, fmt.Sprintf("ledger rejected %d proofs naming peer %d", st.Invalid, peer))
		}
	}
	r.Ops = (leechers - r.Failed) * w.pieces

	t2 := time.Now()
	id = rec.begin("node.Cluster.Stop", root, 0, idx)
	err = c.Stop()
	rec.end(id)
	r.StopS = time.Since(t2).Seconds()
	if err != nil {
		r.Errors = append(r.Errors, fmt.Sprintf("Stop: %v", err)) // reported, not a failed download
	}
	return r
}
