package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/attest"
	"repro/internal/tracing"
)

// Trace-context frame extension. Data-path frames (Piece, SealedPiece,
// Attest, AttestedReceipt) may carry a trailing 17-byte block — one magic
// byte, then the 8-byte trace ID and 8-byte causing-span ID — after their
// base payload. The block is appended only for traced frames, so the
// untraced wire format is byte-identical to the pre-extension format, and
// decoders that predate the extension reject nothing new (they never see
// it). Decoders that know the extension recognize exactly this trailing
// shape; any other trailing bytes remain malformed.
const (
	traceMagic    = 0x54 // 'T'
	traceExtWidth = 1 + 8 + 8
)

// traceContext appends the trace-context extension for a traced context
// and nothing for an untraced one.
func (w *writer) traceContext(c tracing.Context) {
	if !c.Traced() {
		return
	}
	w.u8(traceMagic)
	w.u64(c.TraceID)
	w.u64(c.SpanID)
}

// traceContext consumes a trailing trace-context extension if and only if
// the remaining payload is exactly one: absent means untraced, and
// malformed trailers are left for done() to reject.
func (r *reader) traceContext() (c tracing.Context) {
	if r.err != nil || len(r.buf) != traceExtWidth || r.buf[0] != traceMagic {
		return
	}
	r.u8()
	c.TraceID = r.u64()
	c.SpanID = r.u64()
	return
}

// writer appends big-endian primitives to a caller-provided buffer. It is
// allocation-free apart from the append growth of the buffer itself, which
// pooled callers amortize to zero.
type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) i32(v int32)  { w.u32(uint32(v)) }
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// reader consumes big-endian primitives from a buffer; the first error
// sticks so call sites can decode unconditionally and check once. With
// zeroCopy set, variable-length byte fields are returned as subslices of
// the payload instead of fresh copies — the Decoder uses this so bulk
// piece data flows from its scratch buffer straight into a verifying
// consumer (piece.Store.Put) without an intermediate allocation.
type reader struct {
	buf      []byte
	err      error
	zeroCopy bool
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = ErrMalformed
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) i32() int32 { return int32(r.u32()) }

func (r *reader) bytes() []byte {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if uint64(n) > uint64(len(r.buf)) {
		r.err = ErrMalformed
		return nil
	}
	raw := r.take(int(n))
	if r.zeroCopy {
		return raw
	}
	out := make([]byte, len(raw))
	copy(out, raw)
	return out
}

func (r *reader) str() string {
	// Strings are always materialized (string conversion copies), so the
	// zero-copy mode never leaks scratch storage through an address field.
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if uint64(n) > uint64(len(r.buf)) {
		r.err = ErrMalformed
		return ""
	}
	return string(r.take(int(n)))
}

func (r *reader) boolean() bool { return r.u8() != 0 }

// attestation appends an attestation's wire form: every canonical field in
// canonical order, then the signature. Fixed-width throughout.
func (w *writer) attestation(a *attest.Attestation) {
	w.buf = a.AppendCanonical(w.buf)
	w.buf = append(w.buf, a.Sig[:]...)
}

// attestation consumes an attestation's wire form.
func (r *reader) attestation() attest.Attestation {
	a := attest.Attestation{
		Sender:   r.i32(),
		Receiver: r.i32(),
		Index:    r.i32(),
	}
	copy(a.Hash[:], r.take(len(a.Hash)))
	a.Bytes = int64(r.u64())
	a.Seq = r.u64()
	a.Scheme = attest.Scheme(r.u8())
	copy(a.Sig[:], r.take(len(a.Sig)))
	return a
}

// done verifies the payload was consumed exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.buf))
	}
	return nil
}

// appendPayload appends m's payload encoding to dst and returns the
// extended buffer.
func appendPayload(dst []byte, m Message) ([]byte, error) {
	w := writer{buf: dst}
	switch msg := m.(type) {
	case Hello:
		w.i32(msg.PeerID)
		w.i32(msg.NumPieces)
		w.str(msg.Addr)
		w.bytes(msg.PubKey)
	case Bitfield:
		w.i32(msg.NumPieces)
		w.bytes(msg.Bits)
	case Have:
		w.i32(msg.Index)
	case Piece:
		w.i32(msg.Index)
		w.u64(msg.RepaysKeyID)
		w.bytes(msg.Data)
		w.traceContext(msg.Trace)
	case SealedPiece:
		w.i32(msg.Index)
		w.u64(msg.KeyID)
		w.buf = append(w.buf, msg.Nonce[:]...)
		w.bytes(msg.Ciphertext)
		w.i32(msg.OriginID)
		w.str(msg.OriginAddr)
		w.boolean(msg.Forwarded)
		w.i32(msg.ForwarderID)
		w.traceContext(msg.Trace)
	case Key:
		w.u64(msg.KeyID)
		w.i32(msg.Index)
		w.buf = append(w.buf, msg.Key[:]...)
	case Bye:
		// empty payload
	case Nodes:
		w.u32(uint32(len(msg.Contacts)))
		for _, c := range msg.Contacts {
			w.i32(c.ID)
			w.str(c.Addr)
		}
	case Attest:
		w.attestation(&msg.Att)
		w.traceContext(msg.Trace)
	case AttestedReceipt:
		w.u64(msg.KeyID)
		w.attestation(&msg.Att)
		w.traceContext(msg.Trace)
	case HaveBatch:
		for _, list := range [2][]int32{msg.Indices, msg.Requests} {
			w.u32(uint32(len(list)))
			for _, idx := range list {
				w.i32(idx)
			}
		}
	default:
		return dst, fmt.Errorf("protocol: cannot marshal %T", m)
	}
	return w.buf, nil
}

// unmarshalPayload decodes one payload. With zeroCopy set, the returned
// message's bulk byte fields (Piece.Data, Bitfield.Bits) alias payload.
func unmarshalPayload(t Type, payload []byte, zeroCopy bool) (Message, error) {
	r := &reader{buf: payload, zeroCopy: zeroCopy}
	var m Message
	switch t {
	case TypeHello:
		msg := Hello{PeerID: r.i32(), NumPieces: r.i32(), Addr: r.str()}
		// PubKey outlives the frame (it is pinned in a directory), so it is
		// always materialized rather than aliasing the decode scratch.
		if pk := r.bytes(); len(pk) > 0 {
			msg.PubKey = append([]byte(nil), pk...)
		}
		m = msg
	case TypeBitfield:
		msg := Bitfield{NumPieces: r.i32(), Bits: r.bytes()}
		m = msg
	case TypeHave:
		m = Have{Index: r.i32()}
	case TypePiece:
		m = Piece{Index: r.i32(), RepaysKeyID: r.u64(), Data: r.bytes(), Trace: r.traceContext()}
	case TypeSealedPiece:
		msg := SealedPiece{Index: r.i32(), KeyID: r.u64()}
		copy(msg.Nonce[:], r.take(len(msg.Nonce)))
		// Ciphertext outlives the frame (the receiver parks it until its key
		// lands, and may forward it), so, like Hello.PubKey, it is always
		// materialized rather than aliasing the decode scratch.
		if msg.Ciphertext = r.bytes(); r.zeroCopy {
			msg.Ciphertext = bytes.Clone(msg.Ciphertext)
		}
		msg.OriginID = r.i32()
		msg.OriginAddr = r.str()
		msg.Forwarded = r.boolean()
		msg.ForwarderID = r.i32()
		msg.Trace = r.traceContext()
		m = msg
	case TypeKey:
		msg := Key{KeyID: r.u64(), Index: r.i32()}
		copy(msg.Key[:], r.take(len(msg.Key)))
		m = msg
	case TypeBye:
		m = Bye{}
	case TypeNodes:
		msg := Nodes{}
		count := r.u32()
		// Each contact costs at least 8 bytes (ID + address length), so a
		// count beyond the remaining payload is malformed — reject before
		// allocating the slice a forged header asks for.
		if r.err == nil && uint64(count)*8 > uint64(len(r.buf)) {
			r.err = ErrMalformed
		}
		if r.err == nil && count > 0 {
			msg.Contacts = make([]NodeInfo, 0, count)
			for i := uint32(0); i < count; i++ {
				msg.Contacts = append(msg.Contacts, NodeInfo{ID: r.i32(), Addr: r.str()})
			}
		}
		m = msg
	case TypeAttest:
		m = Attest{Att: r.attestation(), Trace: r.traceContext()}
	case TypeAttestedReceipt:
		m = AttestedReceipt{KeyID: r.u64(), Att: r.attestation(), Trace: r.traceContext()}
	case TypeHaveBatch:
		msg := HaveBatch{}
		// Two counted lists of fixed-width indices: the counts must account
		// for the rest of the payload exactly — reject before allocating the
		// one slice both lists share, which a forged header would size.
		count := uint64(r.u32())
		var asked uint64
		if r.err == nil && count*4+4 <= uint64(len(r.buf)) {
			asked = uint64(binary.BigEndian.Uint32(r.buf[count*4:]))
		}
		if r.err == nil && (count+asked)*4+4 != uint64(len(r.buf)) {
			r.err = ErrMalformed
		}
		if r.err == nil {
			both := make([]int32, count+asked) // no allocation when both are empty
			for i := range both {
				if uint64(i) == count {
					r.u32() // asked, read above
				}
				both[i] = r.i32()
			}
			if asked == 0 {
				r.u32()
			}
			if count > 0 {
				msg.Indices = both[:count:count]
			}
			if asked > 0 {
				msg.Requests = both[count:]
			}
		}
		m = msg
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, uint8(t))
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("decoding %v: %w", t, err)
	}
	return m, nil
}
