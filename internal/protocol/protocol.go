// Package protocol defines the wire messages the live cooperative-exchange
// node (internal/node) speaks, and their binary framing.
//
// Frame layout: a 4-byte big-endian payload length, a 1-byte message type,
// then the payload. Payloads use fixed-width big-endian integers,
// length-prefixed byte strings, and raw bytes for piece data. The format is
// deliberately free of reflection and allocation-light: Decode reads exactly
// one frame and rejects oversized or malformed input.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/attest"
	"repro/internal/tracing"
)

// MaxFrameSize bounds a frame payload (16 MiB): large enough for any
// realistic piece, small enough to stop a malicious peer from ballooning
// our memory.
const MaxFrameSize = 16 << 20

// Type tags a wire message.
type Type uint8

// The message types.
const (
	TypeHello Type = iota + 1
	TypeBitfield
	TypeHave
	TypePiece
	TypeSealedPiece
	TypeKey
	_ // 7 was Receipt, retired for AttestedReceipt carrying an unsigned claim; ErrUnknownType
	TypeBye
	_ // 9 was Ping, retired with the DHT's liveness probes; ErrUnknownType
	_ // 10 was FindNode, retired with the DHT's lookups; ErrUnknownType
	TypeNodes
	_ // 12 was Announce, retired with the DHT's gossip; ErrUnknownType
	TypeAttest
	TypeAttestedReceipt
	_ // 15 was AttestBatch, retired unsent; the decoder answers ErrUnknownType
	TypeHaveBatch
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeBitfield:
		return "bitfield"
	case TypeHave:
		return "have"
	case TypePiece:
		return "piece"
	case TypeSealedPiece:
		return "sealed-piece"
	case TypeKey:
		return "key"
	case TypeBye:
		return "bye"
	case TypeNodes:
		return "nodes"
	case TypeAttest:
		return "attest"
	case TypeAttestedReceipt:
		return "attested-receipt"
	case TypeHaveBatch:
		return "have-batch"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Message is one wire message.
type Message interface {
	// MsgType returns the frame type tag.
	MsgType() Type
}

// Hello opens a connection in both directions: who am I, how many pieces
// does the swarm's file have, and where can I be dialed. PubKey, when
// non-empty, is the sender's Ed25519 identity key; receivers pin it
// trust-on-first-use (attest.Directory.Observe) so the peer's transfer
// attestations can be verified. Empty means the peer runs unsigned.
type Hello struct {
	PeerID    int32
	NumPieces int32
	Addr      string
	PubKey    []byte
}

// Bitfield announces the complete set of held pieces.
type Bitfield struct {
	NumPieces int32
	Bits      []byte // ceil(NumPieces/8) bytes, LSB-first within each byte
}

// Have announces one newly acquired piece.
type Have struct {
	Index int32
}

// HaveBatch announces several newly acquired pieces, in the order they
// were acquired — semantically that many Have frames — and carries the
// pieces the sender asks the receiver to upload to it next, oldest first.
// Both lists are read-only on both sides: over an in-process transport
// Indices is a window of the sender's own gain log, shared by every link
// that announces it, and Requests a window of its request log.
type HaveBatch struct {
	Indices  []int32
	Requests []int32
}

// Piece delivers plaintext piece data. RepaysKeyID, when nonzero−1 (i.e.,
// not NoRepay), marks this upload as the direct reciprocation for a sealed
// piece the sender received earlier.
type Piece struct {
	Index       int32
	RepaysKeyID uint64 // NoRepay when this is an ordinary upload
	Data        []byte
	// Trace is the optional causal trace context (see the trace-context
	// frame extension in codec.go). The zero Context is untraced and adds
	// no wire bytes.
	Trace tracing.Context
}

// NoRepay is the RepaysKeyID value for ordinary (non-reciprocation) pieces.
const NoRepay uint64 = math.MaxUint64

// SealedPiece delivers an encrypted piece under T-Chain. Origin identifies
// the sealing peer (it travels with forwarded seals so the witness knows
// whom to notify).
type SealedPiece struct {
	Index      int32
	KeyID      uint64
	Nonce      [16]byte
	Ciphertext []byte
	OriginID   int32
	OriginAddr string
	// Forwarded marks a seal relayed by a newcomer as its indirect
	// reciprocation (the relayer cannot read it either).
	Forwarded bool
	// ForwarderID is the relaying peer for forwarded seals.
	ForwarderID int32
	// Trace is the optional causal trace context; zero means untraced.
	Trace tracing.Context
}

// Key releases the decryption key for an earlier SealedPiece.
type Key struct {
	KeyID uint64
	Index int32
	Key   [32]byte
}

// Bye announces a graceful departure.
type Bye struct{}

// NodeInfo is one routable contact carried in a Nodes frame: a swarm node
// ID plus the address its listener can be dialed at.
type NodeInfo struct {
	ID   int32
	Addr string
}

// Nodes is peer exchange: the accepting side of a handshake lists
// neighbours the dialer may link to next. Contacts are hints — the
// receiver filters and bounds them — never claims that cost a link.
type Nodes struct {
	Contacts []NodeInfo
}

// Attest carries a transfer attestation on piece delivery: the receiver's
// signed receipt ("you delivered piece Index to me"), sent back to the
// uploader so it holds spendable proof of its contribution. The receiver
// also submits the same attestation to its own reputation ledger — the
// frame is the sender's copy.
type Attest struct {
	Att attest.Attestation
	// Trace is the optional causal trace context; zero means untraced.
	Trace tracing.Context
}

// AttestedReceipt is the witness's confirmation to a seal's origin — the
// trigger for key release: its attestation that reciprocation for KeyID
// arrived from Att.Sender. A signing origin verifies the witness signature
// before releasing the key; an unsigned swarm sends a bare attest.Claim,
// which is exactly the frame a colluder forges in the paper's T-Chain
// collusion attack.
type AttestedReceipt struct {
	KeyID uint64
	Att   attest.Attestation
	// Trace is the optional causal trace context; zero means untraced.
	Trace tracing.Context
}

// MsgType returns TypeHello.
func (Hello) MsgType() Type { return TypeHello }

// MsgType returns TypeBitfield.
func (Bitfield) MsgType() Type { return TypeBitfield }

// MsgType returns TypeHave.
func (Have) MsgType() Type { return TypeHave }

// MsgType returns TypePiece.
func (Piece) MsgType() Type { return TypePiece }

// MsgType returns TypeSealedPiece.
func (SealedPiece) MsgType() Type { return TypeSealedPiece }

// MsgType returns TypeKey.
func (Key) MsgType() Type { return TypeKey }

// MsgType returns TypeBye.
func (Bye) MsgType() Type { return TypeBye }

// MsgType returns TypeNodes.
func (Nodes) MsgType() Type { return TypeNodes }

// MsgType returns TypeAttest.
func (Attest) MsgType() Type { return TypeAttest }

// MsgType returns TypeAttestedReceipt.
func (AttestedReceipt) MsgType() Type { return TypeAttestedReceipt }

// MsgType returns TypeHaveBatch.
func (HaveBatch) MsgType() Type { return TypeHaveBatch }

// Errors returned by Decode.
var (
	ErrFrameTooLarge = errors.New("protocol: frame exceeds MaxFrameSize")
	ErrMalformed     = errors.New("protocol: malformed frame")
	ErrUnknownType   = errors.New("protocol: unknown message type")
)

// headerSize is the frame header length: a 4-byte payload length plus the
// 1-byte type tag.
const headerSize = 5

// framePool recycles frame-assembly buffers across EncodeTo calls, so the
// steady-state encode path performs zero per-frame allocations. Buffers
// grow to fit the largest frame they ever carried and are reused at that
// size.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 1<<10); return &b }}

// AppendFrame appends one framed message (header plus payload) to dst and
// returns the extended buffer. The frame is assembled in place: the header
// is reserved first and patched once the payload length is known, so the
// whole frame is contiguous and can hit the wire in a single Write. On
// error, dst is returned unextended.
func AppendFrame(dst []byte, m Message) ([]byte, error) {
	head := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(m.MsgType()))
	dst, err := appendPayload(dst, m)
	if err != nil {
		return dst[:head], err
	}
	size := len(dst) - head - headerSize
	if size > MaxFrameSize {
		return dst[:head], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[head:], uint32(size))
	return dst, nil
}

// EncodeTo writes one framed message to w as a single Write call, using a
// pooled assembly buffer: header and payload are gathered into one
// contiguous frame first, so an unbuffered socket sees one syscall per
// frame and a buffered writer one copy, with no per-frame allocation.
func EncodeTo(w io.Writer, m Message) error {
	bp := framePool.Get().(*[]byte)
	buf, err := AppendFrame((*bp)[:0], m)
	if err == nil {
		if _, werr := w.Write(buf); werr != nil {
			err = fmt.Errorf("protocol: writing frame: %w", werr)
		}
	}
	*bp = buf[:0]
	framePool.Put(bp)
	return err
}

// Decoder reads framed messages from one stream through a reusable scratch
// buffer, so the steady-state decode path performs zero per-frame
// allocations. A Decoder is owned by a single reader goroutine (matching
// transport.Conn's Recv contract) and must not be shared.
//
// Zero-copy contract: the bulk byte fields of a returned message
// (Piece.Data, Bitfield.Bits) alias the decoder's scratch and are valid
// only until the next Decode call. Consume them before reading the next
// frame — handing piece data to piece.Store.Put, which verifies and copies,
// is the canonical zero-copy hand-off; the scratch is released for reuse
// simply by calling Decode again. Retaining such a field past that point
// requires an explicit copy. SealedPiece.Ciphertext and Hello.PubKey, which
// their consumers keep, are owned by the message.
type Decoder struct {
	r       io.Reader
	scratch []byte
	// header lives in the Decoder (not a Decode local) so passing it to
	// io.ReadFull does not make it escape to a fresh heap allocation per
	// frame.
	header [headerSize]byte
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// Decode reads one framed message. io.EOF passes through unwrapped for
// clean shutdown detection, exactly like the package-level Decode.
func (d *Decoder) Decode() (Message, error) {
	if _, err := io.ReadFull(d.r, d.header[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown detection
	}
	size := binary.BigEndian.Uint32(d.header[:4])
	if size > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	if uint32(cap(d.scratch)) < size {
		d.scratch = make([]byte, size)
	}
	payload := d.scratch[:size]
	if _, err := io.ReadFull(d.r, payload); err != nil {
		return nil, fmt.Errorf("protocol: reading payload: %w", err)
	}
	return unmarshalPayload(Type(d.header[4]), payload, true)
}

// Decode reads one framed message from r. Unlike Decoder.Decode, the
// returned message owns all its storage and may be retained indefinitely —
// the right call for one-shot or low-rate use; per-connection read loops
// should hold a Decoder instead.
func Decode(r io.Reader) (Message, error) {
	header := make([]byte, headerSize)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, err // io.EOF passes through for clean shutdown detection
	}
	size := binary.BigEndian.Uint32(header)
	if size > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("protocol: reading payload: %w", err)
	}
	return unmarshalPayload(Type(header[4]), payload, false)
}
