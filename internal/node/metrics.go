package node

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/attest"
	"repro/internal/metrics"
)

// nodeMetrics bundles the node's instrumentation: typed handles into one
// metrics.Registry, resolved once at construction so the hot paths never
// touch the registry's name map. Every node has one — when Config.Metrics
// is nil a private registry backs it — which lets Stats() be a pure
// snapshot shim over the counters instead of a second bookkeeping system.
//
// Series (node_ namespace):
//
//	node_uploaded_bytes_total / node_credited_bytes_total
//	node_frames_sent_total{class="control"|"bulk"} / node_frames_received_total
//	node_drains_total                   writer drains that reached the wire (one
//	                                    flush each): frames sent per drain is
//	                                    how well the outboxes coalesce
//	node_backpressure_refusals_total    bulk frames refused by a full peer queue
//	node_pieces_verified_total
//	node_duplicate_piece_bytes_total    verified deliveries of pieces already held
//	node_peer_download_bytes_total{peer="N"}  credited bytes per sender
//	node_pieces_held / node_neighbors / node_sealed_pending /
//	node_complete / node_outbox_depth   pull-style gauges
//	node_stop_drain_frames_total        frames flushed during Stop's drain window
//	node_stop_drain_dropped_total       frames still queued when Stop closed the connections
//
// Attestation series (present on every node; they only move when signing
// or verification actually happens):
//
//	node_attest_signed_total            receipts this node signed
//	node_attest_credited_total          attestations the ledger accepted
//	node_attest_rejected_total{reason=} attestations the ledger refused
//	node_attest_acks_total{result=}     sender-side receipt copies checked
//	node_attest_receipts_total{result="ok",scheme="link"|"ed25519"}
//	node_attest_receipts_total{result="rejected"}
//	                                    witness-signed T-Chain receipts, the
//	                                    verified ones by the key that signed
//	node_attest_tofu_rejected_total     handshakes refused by the directory
//	node_tchain_grace_releases_total    keys the endgame sweep released
type nodeMetrics struct {
	reg *metrics.Registry

	uploadedBytes  *metrics.Counter
	creditedBytes  *metrics.Counter
	framesControl  *metrics.Counter
	framesBulk     *metrics.Counter
	drains         *metrics.Counter
	framesIn       *metrics.Counter
	backpressure   *metrics.Counter
	piecesVerified *metrics.Counter
	duplicateBytes *metrics.Counter

	stopDrainFrames  *metrics.Counter
	stopDrainDropped *metrics.Counter

	attestSigned           *metrics.Counter
	attestCredited         *metrics.Counter
	attestAcksOK           *metrics.Counter
	attestAcksBad          *metrics.Counter
	attestReceiptsLink     *metrics.Counter
	attestReceiptsEd25519  *metrics.Counter
	attestReceiptsRejected *metrics.Counter
	attestTOFURejected     *metrics.Counter
	graceReleases          *metrics.Counter

	// Ledger rejections, pre-resolved per reason so the error path never
	// touches the registry's name map.
	rejBadSig   *metrics.Counter
	rejReplayed *metrics.Counter
	rejStale    *metrics.Counter
	rejUnknown  *metrics.Counter
	rejSelf     *metrics.Counter
	rejUnsigned *metrics.Counter
	rejOther    *metrics.Counter

	peerMu   sync.Mutex
	peerDown map[int]*metrics.Counter
}

// newNodeMetrics resolves the node's series in reg and registers the
// pull-style gauges, which read n under its own locks at snapshot time
// (never call Registry.Snapshot with n.mu held).
func newNodeMetrics(reg *metrics.Registry, n *Node) *nodeMetrics {
	m := &nodeMetrics{
		reg:              reg,
		uploadedBytes:    reg.Counter("node_uploaded_bytes_total"),
		creditedBytes:    reg.Counter("node_credited_bytes_total"),
		framesControl:    reg.Counter(`node_frames_sent_total{class="control"}`),
		framesBulk:       reg.Counter(`node_frames_sent_total{class="bulk"}`),
		drains:           reg.Counter("node_drains_total"),
		framesIn:         reg.Counter("node_frames_received_total"),
		backpressure:     reg.Counter("node_backpressure_refusals_total"),
		piecesVerified:   reg.Counter("node_pieces_verified_total"),
		duplicateBytes:   reg.Counter("node_duplicate_piece_bytes_total"),
		stopDrainFrames:  reg.Counter("node_stop_drain_frames_total"),
		stopDrainDropped: reg.Counter("node_stop_drain_dropped_total"),
		peerDown:         make(map[int]*metrics.Counter),

		attestSigned:           reg.Counter("node_attest_signed_total"),
		attestCredited:         reg.Counter("node_attest_credited_total"),
		attestAcksOK:           reg.Counter(`node_attest_acks_total{result="ok"}`),
		attestAcksBad:          reg.Counter(`node_attest_acks_total{result="bad"}`),
		attestReceiptsLink:     reg.Counter(`node_attest_receipts_total{result="ok",scheme="link"}`),
		attestReceiptsEd25519:  reg.Counter(`node_attest_receipts_total{result="ok",scheme="ed25519"}`),
		attestReceiptsRejected: reg.Counter(`node_attest_receipts_total{result="rejected"}`),
		attestTOFURejected:     reg.Counter("node_attest_tofu_rejected_total"),
		graceReleases:          reg.Counter("node_tchain_grace_releases_total"),
		rejBadSig:              reg.Counter(`node_attest_rejected_total{reason="bad-signature"}`),
		rejReplayed:            reg.Counter(`node_attest_rejected_total{reason="replayed"}`),
		rejStale:               reg.Counter(`node_attest_rejected_total{reason="stale"}`),
		rejUnknown:             reg.Counter(`node_attest_rejected_total{reason="unknown-signer"}`),
		rejSelf:                reg.Counter(`node_attest_rejected_total{reason="self"}`),
		rejUnsigned:            reg.Counter(`node_attest_rejected_total{reason="unsigned"}`),
		rejOther:               reg.Counter(`node_attest_rejected_total{reason="other"}`),
	}
	reg.RegisterGaugeFunc("node_pieces_held", func() int64 {
		return int64(n.cfg.Store.Count())
	})
	reg.RegisterGaugeFunc("node_complete", func() int64 {
		if n.cfg.Store.Complete() {
			return 1
		}
		return 0
	})
	reg.RegisterGaugeFunc("node_neighbors", func() int64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return int64(len(n.peers))
	})
	reg.RegisterGaugeFunc("node_sealed_pending", func() int64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return int64(len(n.pendingSeals))
	})
	reg.RegisterGaugeFunc("node_outbox_depth", func() int64 {
		return n.outboxDepth()
	})
	return m
}

// peerDownload returns the get-or-create per-peer download byte counter.
func (m *nodeMetrics) peerDownload(peer int) *metrics.Counter {
	m.peerMu.Lock()
	defer m.peerMu.Unlock()
	c, ok := m.peerDown[peer]
	if !ok {
		c = m.reg.Counter(fmt.Sprintf(`node_peer_download_bytes_total{peer="%d"}`, peer))
		m.peerDown[peer] = c
	}
	return c
}

// noteDownload records one verified (credited) inbound piece payload from
// peer.
func (m *nodeMetrics) noteDownload(peer, bytes int) {
	m.creditedBytes.Add(int64(bytes))
	m.peerDownload(peer).Add(int64(bytes))
}

// attestRejected maps a ledger rejection to its reason-labelled counter.
func (m *nodeMetrics) attestRejected(err error) *metrics.Counter {
	switch {
	case errors.Is(err, attest.ErrBadSignature):
		return m.rejBadSig
	case errors.Is(err, attest.ErrReplayed):
		return m.rejReplayed
	case errors.Is(err, attest.ErrStale):
		return m.rejStale
	case errors.Is(err, attest.ErrUnknownSigner), errors.Is(err, attest.ErrNoSession):
		return m.rejUnknown
	case errors.Is(err, attest.ErrSelfAttestation):
		return m.rejSelf
	case errors.Is(err, attest.ErrUnsigned):
		return m.rejUnsigned
	default:
		return m.rejOther
	}
}

// noteDuplicate records a verified delivery of a piece we already held —
// real wire traffic, but not useful volume (two peers pushed the same piece
// concurrently). Kept out of the credited/per-peer counters so their sums
// equal verified content bytes exactly.
func (m *nodeMetrics) noteDuplicate(bytes int) {
	m.duplicateBytes.Add(int64(bytes))
}

// outboxDepth sums the queued outbound frames across peers.
func (n *Node) outboxDepth() int64 { return queuedFrames(n.remotes()) }

// Metrics returns the node's own metric registry. It is live: counters keep
// moving while the node runs.
func (n *Node) Metrics() *metrics.Registry { return n.metrics.reg }
