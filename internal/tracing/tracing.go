// Package tracing provides lightweight causal trace spans for the live
// node data path. A sampled piece push mints a 64-bit trace ID that is
// carried across the wire inside protocol frames (see the optional
// trace-context extension in internal/protocol); every hop appends spans
// into its node's Collector, so one trace ID reconstructs the full
// cross-node story of a piece: queued at the sender, dwelling in a bulk
// outbox behind backpressure, on the wire, verified into the store,
// attested, and credited at the ledger.
//
// The design goals, in order:
//
//  1. Zero cost when off. A nil *Collector disables everything; the node
//     hot path never allocates, locks, or reads a clock for untraced
//     frames (scripts/check.sh pins this).
//  2. Bounded memory when on. Spans land in a fixed-size ring; under
//     overload the oldest spans are overwritten and counted, never
//     blocking the data path.
//  3. Causality over precision. Span IDs are minted from one shared
//     atomic counter per Collector (a cluster shares one), so parent
//     links are unambiguous across nodes; timestamps are wall-clock
//     nanoseconds and only comparable within one machine.
package tracing

import (
	"sync"
	"sync/atomic"
)

// Span names recorded by the node. A span either has a duration (Dur > 0)
// or is an instantaneous event (Dur == 0).
const (
	SpanRequestQueued = "request.queued" // upload decision made -> frame accepted by the peer outbox
	SpanOutboxWait    = "outbox.wait"    // dwell in the per-peer outbox behind earlier frames (backpressure)
	SpanWireSend      = "wire.send"      // encode + syscall on the sending side
	SpanWireRecv      = "wire.recv"      // frame decoded on the receiving side (instant)
	SpanStoreVerify   = "store.verify"   // hash verification + store write
	SpanAttestSign    = "attest.sign"    // receipt signature at the receiver
	SpanLedgerCredit  = "ledger.credit"  // ledger verification + credit
	SpanAttestAck     = "attest.ack"     // signed receipt copy back at the uploader (instant)
	SpanChoke         = "choke"          // peer outbox hit the data backpressure limit (instant)
	SpanUnchoke       = "unchoke"        // peer outbox drained back below the limit (instant)
)

// Context is the trace identity carried across the wire: which trace a
// frame belongs to and which span caused it. The zero Context means
// untraced; old peers that do not understand the extension simply see no
// trailing bytes and interoperate.
type Context struct {
	TraceID uint64 // 0 = untraced
	SpanID  uint64 // the sender-side span that caused this frame
}

// Traced reports whether the context carries a live trace.
func (c Context) Traced() bool { return c.TraceID != 0 }

// Span is one recorded hop of a trace. Node is the recording node, Peer
// the remote involved (-1 when none), Piece the piece index (-1 when not
// piece-scoped). Start is wall-clock UnixNano; Dur is 0 for instants.
type Span struct {
	TraceID  uint64 `json:"trace"`
	SpanID   uint64 `json:"span"`
	ParentID uint64 `json:"parent,omitempty"`
	Name     string `json:"name"`
	Node     int    `json:"node"`
	Peer     int    `json:"peer"`
	Piece    int    `json:"piece"`
	Start    int64  `json:"start"`
	Dur      int64  `json:"dur"`
}

// End returns the span's end time in UnixNano.
func (s Span) End() int64 { return s.Start + s.Dur }

// Config configures a Collector.
type Config struct {
	// SampleEvery samples one in N freshly minted piece pushes (the first
	// push always samples, so short runs still trace). 0 mints no traces;
	// traces arriving from peers are still continued.
	SampleEvery int
	// Capacity is the span ring size (default 4096). When full, the
	// oldest spans are overwritten and counted in Snapshot's dropped
	// figure.
	Capacity int
}

// DefaultCapacity is the span ring size when Config.Capacity is 0.
const DefaultCapacity = 4096

// Collector accumulates spans into a fixed-size ring. One Collector is
// shared by every node of a cluster so span IDs are globally unique and
// Snapshot returns the merged cross-node view. All methods are safe for
// concurrent use; Record is a leaf lock (no callbacks), so callers may
// hold their own locks across it.
type Collector struct {
	sampleEvery uint64

	ids  atomic.Uint64 // span/trace ID mint; post-increment, so IDs start at 1
	tick atomic.Uint64 // sampling clock

	mu      sync.Mutex
	ring    []Span
	next    int    // overwrite cursor once the ring is full
	dropped uint64 // spans overwritten
}

// NewCollector returns a Collector for cfg.
func NewCollector(cfg Config) *Collector {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Collector{
		sampleEvery: uint64(max(cfg.SampleEvery, 0)),
		ring:        make([]Span, 0, capacity),
	}
}

// NewID mints a fresh nonzero ID, used for both trace and span IDs.
func (c *Collector) NewID() uint64 { return c.ids.Add(1) }

// Sample reports whether the next freshly minted piece push should be
// traced: deterministic one-in-SampleEvery on a shared atomic clock (the
// first call samples). Nil-safe; a nil Collector never samples.
func (c *Collector) Sample() bool {
	if c == nil || c.sampleEvery == 0 {
		return false
	}
	return (c.tick.Add(1)-1)%c.sampleEvery == 0
}

// Record appends a span, overwriting the oldest when the ring is full.
func (c *Collector) Record(s Span) {
	c.mu.Lock()
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, s)
	} else {
		c.ring[c.next] = s
		c.next++
		if c.next == cap(c.ring) {
			c.next = 0
		}
		c.dropped++
	}
	c.mu.Unlock()
}

// Snapshot returns the collected spans oldest-first plus the count of
// spans lost to ring overwrites.
func (c *Collector) Snapshot() (spans []Span, dropped uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	spans = make([]Span, 0, len(c.ring))
	if len(c.ring) == cap(c.ring) {
		spans = append(spans, c.ring[c.next:]...)
		spans = append(spans, c.ring[:c.next]...)
	} else {
		spans = append(spans, c.ring...)
	}
	return spans, c.dropped
}
