package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/piece"
	"repro/internal/transport"
)

// TestSampler covers the periodic reducer on an in-process swarm: rows
// accumulate, progress is monotonic, and the final row reflects completion.
func TestSampler(t *testing.T) {
	const pieces, pieceSize = 16, 512
	manifest, err := piece.SyntheticManifest(pieces, pieceSize)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 0, manifest.FileSize)
	for i := 0; i < pieces; i++ {
		content = append(content, piece.SyntheticPiece(i, pieceSize)...)
	}
	c, err := node.StartCluster(manifest, content, node.WithTransport(transport.NewMem()), node.WithLeechers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	n := c.Leechers()[0]

	rowCh := make(chan sampleRow, 256)
	s := startSampler(n, 5*time.Millisecond, func(r sampleRow) {
		select {
		case rowCh <- r:
		default:
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := n.WaitCompleteContext(ctx); err != nil {
		s.finish()
		t.Fatal(err)
	}
	// Let a post-completion sample land with the books closed: the store
	// reports complete a moment before the last piece's bytes are credited.
	deadline := time.After(5 * time.Second)
	for closed := false; !closed; {
		select {
		case r := <-rowCh:
			closed = r.Complete && r.CreditedBytes == int64(len(content))
		case <-deadline:
			s.finish()
			t.Fatal("no complete, fully credited sample observed")
		}
	}
	rows := s.finish()
	if len(rows) == 0 {
		t.Fatal("no rows collected")
	}
	last := rows[len(rows)-1]
	for i := 1; i < len(rows); i++ {
		if rows[i].TSec < rows[i-1].TSec || rows[i].CreditedBytes < rows[i-1].CreditedBytes {
			t.Fatalf("rows not monotonic at %d: %+v -> %+v", i, rows[i-1], rows[i])
		}
	}
	if !last.Complete || last.Pieces != pieces {
		t.Errorf("final row %+v, want complete with %d pieces", last, pieces)
	}
	if last.CreditedBytes != int64(len(content)) {
		t.Errorf("final credited %d, want %d", last.CreditedBytes, len(content))
	}
	if last.Jain <= 0 || last.Jain > 1 {
		t.Errorf("jain = %v, want (0, 1]", last.Jain)
	}
	// Rows must survive JSON encoding (no NaN leaks from the fairness
	// index).
	if _, err := json.Marshal(rows); err != nil {
		t.Errorf("rows not JSON-encodable: %v", err)
	}
	if line := dashboardLine(last, pieces); !strings.Contains(line, "pieces=16/16") {
		t.Errorf("dashboard line %q missing progress", line)
	}
}
