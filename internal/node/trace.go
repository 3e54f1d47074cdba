package node

import (
	"fmt"
	"time"

	"repro/internal/tracing"
)

// Causal tracing glue for the live data path. The node traces nothing by
// default: Config.Tracer is nil, every hook below is skipped behind a nil
// check, and the hot paths (enqueue, writeLoop, handlePiece) run the
// exact pre-tracing instruction stream — scripts/check.sh pins the
// untraced enqueue+drain path's allocation count.
//
// When a collector is attached, the sender mints a three-span chain per
// traced push — request.queued → outbox.wait → wire.send — and the frame
// carries {trace ID, wire.send span ID} across the wire (the protocol
// trace-context extension). The receiver chains wire.recv → store.verify
// → attest.sign → ledger.credit under the inbound context, stores a
// continuation context per piece so its own later uploads of that piece
// extend the same trace, and sends the receipt ack back carrying the
// credit span — whose arrival the original uploader records as
// attest.ack, closing the loop.

// uploadTrace is the sender-side state for one traced piece push, minted
// under n.mu by uploadTraceLocked (or continueUpload) and threaded through
// sendPiece/sendSealed as a nil-means-untraced pointer.
type uploadTrace struct {
	tc     tracing.Context // trace ID + the wire.send span carried on the frame
	queued uint64          // request.queued span ID
	wait   uint64          // outbox.wait span ID
	parent uint64          // parent of request.queued (continuation span, or 0 for a fresh trace)
	piece  int
	peer   int
	mintNs int64 // when the upload decision was made
}

// frame converts the upload trace into the writer-side bookkeeping record,
// stamped with the outbox-entry time.
func (ut *uploadTrace) frame(enqNs int64) tracedFrame {
	return tracedFrame{
		traceID: ut.tc.TraceID,
		queued:  ut.queued,
		wait:    ut.wait,
		send:    ut.tc.SpanID,
		piece:   ut.piece,
		peer:    ut.peer,
		enqNs:   enqNs,
	}
}

// queuedSpan is the request.queued span: decision made → frame accepted by
// the peer outbox.
func (ut *uploadTrace) queuedSpan(node int, enqNs int64) tracing.Span {
	return tracing.Span{
		TraceID: ut.tc.TraceID, SpanID: ut.queued, ParentID: ut.parent,
		Name: tracing.SpanRequestQueued, Node: node, Peer: ut.peer, Piece: ut.piece,
		Start: ut.mintNs, Dur: enqNs - ut.mintNs,
	}
}

// tracedFrame rides the per-peer outbox alongside its frame; writeLoop
// records the outbox.wait and wire.send spans once the drain that carried
// the frame reaches the wire.
type tracedFrame struct {
	traceID uint64
	queued  uint64 // parent of outbox.wait
	wait    uint64
	send    uint64
	piece   int
	peer    int
	enqNs   int64
}

// newUploadTrace mints the sender-side span chain. traceID is an existing
// trace for continuations (parent then links the upstream span) or a fresh
// ID for a sampled push.
func newUploadTrace(tr *tracing.Collector, traceID, parent uint64, piece, peer int) *uploadTrace {
	return &uploadTrace{
		tc:     tracing.Context{TraceID: traceID, SpanID: tr.NewID()},
		queued: tr.NewID(),
		wait:   tr.NewID(),
		parent: parent,
		piece:  piece,
		peer:   peer,
		mintNs: spanNow(),
	}
}

// uploadTraceLocked decides whether this push is traced (mu held): a piece
// that arrived traced continues its trace; otherwise the sampler decides
// whether to mint a fresh one. Returns nil for untraced pushes. Callers
// must have checked n.tracer != nil.
func (n *Node) uploadTraceLocked(idx, peerID int) *uploadTrace {
	tr := n.tracer
	var traceID, parent uint64
	if pt := n.pieceTrace[idx]; pt.Traced() {
		// One-shot: the continuation traces one onward forwarding chain,
		// not the full fan-out tree. Without this, every sampled root
		// transitively taints the whole distribution of its piece and the
		// traced fraction climbs toward 100% regardless of the sampling
		// rate — the cross-node story only needs one causal path.
		traceID, parent = pt.TraceID, pt.SpanID
		n.pieceTrace[idx] = tracing.Context{}
	} else if tr.Sample() {
		traceID = tr.NewID()
	} else {
		return nil
	}
	return newUploadTrace(tr, traceID, parent, idx, peerID)
}

// continueUpload extends an inbound trace context into an outbound push
// (the reciprocation path repaying a traced seal). Returns nil when
// untraced or tracing is off.
func (n *Node) continueUpload(tc tracing.Context, piece, peer int) *uploadTrace {
	if n.tracer == nil || !tc.Traced() {
		return nil
	}
	return newUploadTrace(n.tracer, tc.TraceID, tc.SpanID, piece, peer)
}

// hopTrace chains the receiver-side spans of one traced frame: each step
// closes a span covering the work since the previous step and parents the
// next one under it.
type hopTrace struct {
	tr      *tracing.Collector
	trace   uint64
	last    uint64 // most recent span ID — the next span's parent
	node    int
	peer    int
	piece   int
	startNs int64 // start of the span the next step will close
}

// hopStart begins receiver-side tracing for a traced inbound frame,
// recording the wire.recv instant. Returns nil for untraced frames or when
// tracing is off.
func (n *Node) hopStart(tc tracing.Context, peer, piece int) *hopTrace {
	tr := n.tracer
	if tr == nil || !tc.Traced() {
		return nil
	}
	now := spanNow()
	h := &hopTrace{tr: tr, trace: tc.TraceID, last: tr.NewID(),
		node: n.cfg.ID, peer: peer, piece: piece, startNs: now}
	tr.Record(tracing.Span{
		TraceID: h.trace, SpanID: h.last, ParentID: tc.SpanID,
		Name: tracing.SpanWireRecv, Node: h.node, Peer: peer, Piece: piece, Start: now,
	})
	return h
}

// hopResume continues a stored continuation context without a wire.recv
// instant — the Key-release path, where the traced frame was the seal and
// the key frame merely unlocks it.
func (n *Node) hopResume(tc tracing.Context, peer, piece int) *hopTrace {
	tr := n.tracer
	if tr == nil || !tc.Traced() {
		return nil
	}
	return &hopTrace{tr: tr, trace: tc.TraceID, last: tc.SpanID,
		node: n.cfg.ID, peer: peer, piece: piece, startNs: spanNow()}
}

// step closes a span named name covering the work since the previous step
// and chains under it. Nil-safe.
func (h *hopTrace) step(name string) {
	if h == nil {
		return
	}
	now := spanNow()
	id := h.tr.NewID()
	h.tr.Record(tracing.Span{
		TraceID: h.trace, SpanID: id, ParentID: h.last,
		Name: name, Node: h.node, Peer: h.peer, Piece: h.piece,
		Start: h.startNs, Dur: now - h.startNs,
	})
	h.last = id
	h.startNs = now
}

// context returns the continuation context anchored at the latest span.
// Nil-safe; a nil hop returns the untraced zero Context.
func (h *hopTrace) context() tracing.Context {
	if h == nil {
		return tracing.Context{}
	}
	return tracing.Context{TraceID: h.trace, SpanID: h.last}
}

// instant records a standalone instant span, used for swarm-wide events
// (choke/unchoke) that belong to no single trace.
func instant(tr *tracing.Collector, name string, node, peer, piece int) {
	tr.Record(tracing.Span{
		SpanID: tr.NewID(), Name: name, Node: node, Peer: peer, Piece: piece,
		Start: spanNow(),
	})
}

// spanNow stamps spans in wall-clock Unix nanoseconds, a base shared across
// nodes and processes. Decisions never read it; they take the tick's now.
func spanNow() int64 { return time.Now().UnixNano() }

// traceHex formats a trace ID for log correlation; grep for it across node
// logs to reconstruct a cross-node story.
func traceHex(id uint64) string { return fmt.Sprintf("%016x", id) }

// Tracer returns the node's trace collector, or nil when tracing is off.
func (n *Node) Tracer() *tracing.Collector { return n.tracer }
