// Package transport abstracts the byte pipes the live node runs over: a TCP
// transport for real deployments and an in-memory transport for tests and
// single-process clusters. Both carry internal/protocol frames.
package transport

import (
	"errors"

	"repro/internal/protocol"
)

// ErrClosed is returned by operations on a closed connection or listener.
var ErrClosed = errors.New("transport: closed")

// Conn is a bidirectional, ordered message pipe. Send is safe for
// concurrent use; Recv must be called from a single goroutine.
type Conn interface {
	// Send writes one message. It returns ErrClosed after Close.
	Send(m protocol.Message) error
	// Recv blocks for the next message. It returns ErrClosed (or io.EOF
	// for TCP) once the peer closes.
	//
	// Zero-copy contract: the bulk byte fields of a returned message
	// (Piece.Data, Bitfield.Bits) may alias transport-owned buffers that
	// the next Recv on the same connection reuses. Consume or copy them
	// before the next Recv call, unless the connection reports
	// FrozenPayloads: then they are the sender's frozen bytes, which the
	// receiver may keep, read only. SealedPiece.Ciphertext may be kept,
	// read only, on every transport: over Mem it is the sender's own buffer.
	Recv() (protocol.Message, error)
	// Close tears the connection down; it is idempotent.
	Close() error
	// RemoteAddr describes the peer endpoint (for logging).
	RemoteAddr() string
}

// BatchSender is an optional Conn capability: SendBatch writes a run of
// messages as one unit, letting buffered transports coalesce them into a
// single flush (one syscall for the whole run). The live node's per-peer
// writer drains its queue through this when the connection offers it,
// falling back to per-message Send otherwise. Like Send, SendBatch is safe
// for concurrent use and stops at the first error.
type BatchSender interface {
	SendBatch(ms []protocol.Message) error
}

// FrozenPayloads is an optional Conn capability: PayloadsFrozen reporting
// true means Recv's byte fields are the sender's frozen bytes, never reused
// by a later Recv nor written by anyone, so a receiver may keep them
// without a copy (the live node stores such a piece by reference). A Conn
// without it is read under the zero-copy contract above: TCP decodes into
// scratch the next Recv overwrites.
type FrozenPayloads interface {
	PayloadsFrozen() bool
}

// PayloadsFrozen reports whether c offers FrozenPayloads and says true.
func PayloadsFrozen(c Conn) bool {
	f, ok := c.(FrozenPayloads)
	return ok && f.PayloadsFrozen()
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept blocks for the next inbound connection.
	Accept() (Conn, error)
	// Close stops accepting; it is idempotent.
	Close() error
	// Addr returns the bound address, suitable for Dial.
	Addr() string
}

// Transport creates listeners and outbound connections.
type Transport interface {
	// Listen binds addr. For TCP, addr is host:port (port 0 picks one).
	// For the memory transport, addr is any unique string ("" generates).
	Listen(addr string) (Listener, error)
	// Dial connects to a listener's address.
	Dial(addr string) (Conn, error)
}
