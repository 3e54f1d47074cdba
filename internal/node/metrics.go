package node

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/attest"
)

// nodeMetrics holds the node's counters, one atomic word per series: the
// hot paths add to a field (one atomic add, no lock, no allocation) and
// Metrics names every series once, in its snapshot table. Stats reads the
// same words, so the two views cannot drift.
type nodeMetrics struct {
	uploadedBytes  atomic.Int64
	creditedBytes  atomic.Int64
	framesControl  atomic.Int64
	framesBulk     atomic.Int64
	drains         atomic.Int64
	framesIn       atomic.Int64
	backpressure   atomic.Int64
	piecesVerified atomic.Int64
	duplicateBytes atomic.Int64
	earlyDupBytes  atomic.Int64

	stopDrainFrames  atomic.Int64
	stopDrainDropped atomic.Int64

	attestSigned           atomic.Int64
	attestCredited         atomic.Int64
	attestAcksOK           atomic.Int64
	attestAcksBad          atomic.Int64
	attestReceiptsLink     atomic.Int64
	attestReceiptsEd25519  atomic.Int64
	attestReceiptsRejected atomic.Int64
	attestTOFURejected     atomic.Int64
	graceReleases          atomic.Int64

	// Ledger rejections, one word per reason (see attestRejected).
	rejBadSig   atomic.Int64
	rejReplayed atomic.Int64
	rejStale    atomic.Int64
	rejUnknown  atomic.Int64
	rejSelf     atomic.Int64
	rejUnsigned atomic.Int64
	rejOther    atomic.Int64

	peerMu   sync.Mutex
	peerDown map[int]*atomic.Int64 // credited bytes per sender
}

// noteDownload records one verified (credited) inbound piece payload from
// peer.
func (m *nodeMetrics) noteDownload(peer, bytes int) {
	m.creditedBytes.Add(int64(bytes))
	m.peerMu.Lock()
	c, ok := m.peerDown[peer]
	if !ok {
		c = new(atomic.Int64)
		m.peerDown[peer] = c
	}
	m.peerMu.Unlock()
	c.Add(int64(bytes))
}

// attestRejected maps a ledger rejection to its reason's counter.
func (m *nodeMetrics) attestRejected(err error) *atomic.Int64 {
	switch {
	case errors.Is(err, attest.ErrBadSignature):
		return &m.rejBadSig
	case errors.Is(err, attest.ErrReplayed):
		return &m.rejReplayed
	case errors.Is(err, attest.ErrStale):
		return &m.rejStale
	case errors.Is(err, attest.ErrUnknownSigner), errors.Is(err, attest.ErrNoSession):
		return &m.rejUnknown
	case errors.Is(err, attest.ErrSelfAttestation):
		return &m.rejSelf
	case errors.Is(err, attest.ErrUnsigned):
		return &m.rejUnsigned
	default:
		return &m.rejOther
	}
}

// noteDuplicate records a verified delivery of a piece we already held —
// real wire traffic, but not useful volume (two peers pushed the same piece
// concurrently). Kept out of the credited/per-peer counters so their sums
// equal verified content bytes exactly. A copy that lands while the node
// holds under a tenth of its pieces also counts as early: it shows the few
// pieces a new leecher holds forwarded faster than the Haves that say who
// holds them.
func (m *nodeMetrics) noteDuplicate(bytes, held, pieces int) {
	m.duplicateBytes.Add(int64(bytes))
	if held*10 < pieces {
		m.earlyDupBytes.Add(int64(bytes))
	}
}

// MetricsSnapshot is a point-in-time view of a node's series, keyed by
// series name; the /metrics?format=json payload decodes back into it.
// Every counter is one atomic word, so each value is tear-free, but the
// snapshot is not a linearized cut across series: two counters bumped
// together may differ by in-flight updates until the node quiesces.
type MetricsSnapshot struct {
	// Counters maps series name to counter value.
	Counters map[string]int64 `json:"counters"`
	// Gauges maps series name to instantaneous value.
	Gauges map[string]int64 `json:"gauges"`
}

// Metrics snapshots the node's series (node_ namespace; snake_case,
// counters suffixed _total, byte volumes _bytes_total; a series may carry
// one label block baked into its name). This table is the only place a
// series is named. It takes n.mu, so never call it with n.mu held.
func (n *Node) Metrics() MetricsSnapshot {
	m := n.metrics
	s := MetricsSnapshot{Counters: map[string]int64{
		"node_uploaded_bytes_total":               m.uploadedBytes.Load(),
		"node_credited_bytes_total":               m.creditedBytes.Load(),
		`node_frames_sent_total{class="control"}`: m.framesControl.Load(),
		`node_frames_sent_total{class="bulk"}`:    m.framesBulk.Load(),
		"node_frames_received_total":              m.framesIn.Load(),
		// Writer drains that reached the wire, one flush each: frames sent
		// per drain is how well the outboxes coalesce.
		"node_drains_total": m.drains.Load(),
		// Bulk frames refused by a full peer queue.
		"node_backpressure_refusals_total": m.backpressure.Load(),
		"node_pieces_verified_total":       m.piecesVerified.Load(),
		// Verified deliveries of pieces already held, and those of them
		// received while under a tenth of the pieces were held.
		"node_duplicate_piece_bytes_total":       m.duplicateBytes.Load(),
		"node_early_duplicate_piece_bytes_total": m.earlyDupBytes.Load(),
		// Frames Stop's drain window flushed, and those still queued when
		// it closed the connections.
		"node_stop_drain_frames_total":  m.stopDrainFrames.Load(),
		"node_stop_drain_dropped_total": m.stopDrainDropped.Load(),

		// Attestation: receipts this node signed, attestations the ledger
		// accepted or refused (by reason), sender-side receipt copies
		// checked, T-Chain witness receipts (the verified ones by the key
		// that signed them), handshakes the directory refused, and keys the
		// endgame sweep released. They move only when signing or
		// verification happens.
		"node_attest_signed_total":                                 m.attestSigned.Load(),
		"node_attest_credited_total":                               m.attestCredited.Load(),
		`node_attest_rejected_total{reason="bad-signature"}`:       m.rejBadSig.Load(),
		`node_attest_rejected_total{reason="replayed"}`:            m.rejReplayed.Load(),
		`node_attest_rejected_total{reason="stale"}`:               m.rejStale.Load(),
		`node_attest_rejected_total{reason="unknown-signer"}`:      m.rejUnknown.Load(),
		`node_attest_rejected_total{reason="self"}`:                m.rejSelf.Load(),
		`node_attest_rejected_total{reason="unsigned"}`:            m.rejUnsigned.Load(),
		`node_attest_rejected_total{reason="other"}`:               m.rejOther.Load(),
		`node_attest_acks_total{result="ok"}`:                      m.attestAcksOK.Load(),
		`node_attest_acks_total{result="bad"}`:                     m.attestAcksBad.Load(),
		`node_attest_receipts_total{result="ok",scheme="link"}`:    m.attestReceiptsLink.Load(),
		`node_attest_receipts_total{result="ok",scheme="ed25519"}`: m.attestReceiptsEd25519.Load(),
		`node_attest_receipts_total{result="rejected"}`:            m.attestReceiptsRejected.Load(),
		"node_attest_tofu_rejected_total":                          m.attestTOFURejected.Load(),
		"node_tchain_grace_releases_total":                         m.graceReleases.Load(),
	}}
	m.peerMu.Lock()
	for peer, c := range m.peerDown {
		s.Counters[fmt.Sprintf(`node_peer_download_bytes_total{peer="%d"}`, peer)] = c.Load()
	}
	m.peerMu.Unlock()

	n.mu.Lock()
	defer n.mu.Unlock()
	var complete, outbox int64
	if n.cfg.Store.Complete() {
		complete = 1
	}
	for _, r := range n.links {
		outbox += int64(r.queued()) // outMu nests inside mu
	}
	s.Gauges = map[string]int64{
		"node_pieces_held":    int64(n.cfg.Store.Count()),
		"node_complete":       complete,
		"node_neighbors":      int64(len(n.links)),
		"node_sealed_pending": int64(len(n.pendingSeals)),
		"node_outbox_depth":   outbox,
	}
	return s
}

// family returns a series name without its baked-in label block:
// `a_total{peer="3"}` → `a_total`.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i]
	}
	return name
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` line per family, series sorted
// lexically, counters before gauges. Output is deterministic for a given
// snapshot, which the golden-file test relies on.
func (s MetricsSnapshot) WritePrometheus(w io.Writer) error {
	emit := func(kind string, byName map[string]int64) error {
		names := make([]string, 0, len(byName))
		for name := range byName {
			names = append(names, name)
		}
		sort.Strings(names)
		typed := make(map[string]bool)
		for _, name := range names {
			if f := family(name); !typed[f] {
				typed[f] = true
				if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f, kind); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", name, byName[name]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit("counter", s.Counters); err != nil {
		return err
	}
	return emit("gauge", s.Gauges)
}

// handleMetrics serves the node's snapshot: Prometheus text by default, an
// indented JSON MetricsSnapshot when the request asks for JSON.
func (n *Node) handleMetrics(w http.ResponseWriter, req *http.Request) {
	snap := n.Metrics()
	if wantsJSON(req) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = snap.WritePrometheus(w)
}

// wantsJSON decides the exposition format for one request: JSON for
// `?format=json` or an Accept header containing application/json.
func wantsJSON(req *http.Request) bool {
	if req.URL.Query().Get("format") == "json" {
		return true
	}
	return strings.Contains(req.Header.Get("Accept"), "application/json")
}
