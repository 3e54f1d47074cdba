package protocol

import (
	"bytes"
	"testing"

	"repro/internal/attest"
	"repro/internal/tracing"
)

// FuzzDecode feeds raw byte streams to both decode paths. Invariants:
// neither path may panic, both must agree on success/failure and on the
// decoded message type, and any successfully decoded message must survive
// an encode→decode round trip (the codec is self-consistent on everything
// it accepts).
func FuzzDecode(f *testing.F) {
	// Seed with one valid frame of every message type...
	seeds := []Message{
		Hello{PeerID: 7, NumPieces: 512, Addr: "127.0.0.1:9000"},
		Hello{PeerID: 8, NumPieces: 512, Addr: "127.0.0.1:9001", PubKey: bytes.Repeat([]byte{0xb7}, 32)},
		Bitfield{NumPieces: 12, Bits: []byte{0xff, 0x0f}},
		Have{Index: 42},
		HaveBatch{},
		HaveBatch{Indices: []int32{300}},
		HaveBatch{Indices: []int32{7, 4095, 0, 256, 1024}},
		HaveBatch{Indices: []int32{7, 4095}, Requests: []int32{3, 9, 4000}},
		Piece{Index: 3, RepaysKeyID: NoRepay, Data: []byte("payload")},
		// The trace-context frame extension: a trailing 17-byte block on
		// data-path frames.
		Piece{Index: 3, RepaysKeyID: NoRepay, Data: []byte("payload"),
			Trace: tracing.Context{TraceID: 0xab54a98ceb1f0ad2, SpanID: 0x1122334455667788}},
		SealedPiece{
			Index: 10, KeyID: 124,
			Nonce:      [16]byte{4, 5, 6},
			Ciphertext: []byte{7, 7},
			OriginID:   4, OriginAddr: "mem://a",
			Trace: tracing.Context{TraceID: 2, SpanID: 3},
		},
		Attest{Att: attest.Attestation{
			Sender: 3, Receiver: 4, Index: 11,
			Scheme: attest.SchemeSession,
		}, Trace: tracing.Context{TraceID: 9, SpanID: 10}},
		AttestedReceipt{KeyID: 78, Att: attest.Attestation{
			Sender: 5, Receiver: 6,
			Scheme: attest.SchemeSession,
		}, Trace: tracing.Context{TraceID: 11, SpanID: 12}},
		SealedPiece{
			Index: 9, KeyID: 123,
			Nonce:      [16]byte{1, 2, 3},
			Ciphertext: []byte{9, 9, 9},
			OriginID:   4, OriginAddr: "mem://a",
			Forwarded: true, ForwarderID: 5,
		},
		Key{KeyID: 55, Index: 2, Key: [32]byte{0xaa}},
		AttestedReceipt{KeyID: 55, Att: attest.Claim(4, 6, 2, 1024)},
		Bye{},
		Nodes{Contacts: []NodeInfo{{ID: 3, Addr: "mem://3"}}},
		Attest{Att: attest.Attestation{
			Sender: 3, Receiver: 4, Index: 11,
			Hash:  [32]byte{0xde, 0xad},
			Bytes: 4096, Seq: 9,
			Scheme: attest.SchemeEd25519,
			Sig:    [64]byte{0x01, 0x02},
		}},
		AttestedReceipt{KeyID: 77, Att: attest.Attestation{
			Sender: 5, Receiver: 6,
			Bytes: 1024, Seq: 1,
			Scheme: attest.SchemeSession,
			Sig:    [64]byte{0xfe},
		}},
	}
	for _, m := range seeds {
		frame, err := AppendFrame(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// ...and known malformed shapes: unknown type, oversized length,
	// trailing bytes, truncated string length.
	f.Add([]byte{0, 0, 0, 0, 99})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, byte(TypeBye)})
	f.Add(append([]byte{0, 0, 0, 8, byte(TypeHave)}, make([]byte, 8)...))
	f.Add([]byte{0, 0, 0, 2, byte(TypeHello), 0x01, 0x02})
	// A HaveBatch and a Nodes whose counts overrun their payloads (refused
	// before the slice is allocated), and retired type numbers: AttestBatch,
	// then Ping, FindNode and Announce carrying their old payloads.
	f.Add([]byte{0, 0, 0, 8, byte(TypeHaveBatch), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 8, byte(TypeNodes), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 4, 15, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 5, 9, 0, 0, 0, 17, 1})
	f.Add([]byte{0, 0, 0, 12, 10, 0, 0, 0, 18, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 13, 12, 0, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0, 4, 2})
	// A Piece with 17 trailing bytes that are NOT the trace extension (wrong
	// magic) and one with a truncated extension (16 bytes) — both malformed.
	badTrail := append([]byte{0, 0, 0, 33, byte(TypePiece)},
		0, 0, 0, 1, // index
		0, 0, 0, 0, 0, 0, 0, 0, // repays
		0, 0, 0, 0) // empty data
	f.Add(append(append([]byte{}, badTrail...), 0x55, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2))
	short := append([]byte{}, badTrail...)
	short[3] = 32 // 16 trailing bytes: magic + trace ID + truncated span ID
	f.Add(append(short, traceMagic, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 3))

	f.Fuzz(func(t *testing.T, raw []byte) {
		oneShot, errOne := Decode(bytes.NewReader(raw))
		streamed, errStream := NewDecoder(bytes.NewReader(raw)).Decode()
		if (errOne == nil) != (errStream == nil) {
			t.Fatalf("paths disagree: Decode err=%v, Decoder err=%v", errOne, errStream)
		}
		if errOne != nil {
			return
		}
		if oneShot.MsgType() != streamed.MsgType() {
			t.Fatalf("paths decoded different types: %v vs %v", oneShot.MsgType(), streamed.MsgType())
		}
		// Round-trip stability: re-encoding an accepted message and decoding
		// it again must succeed and preserve the wire bytes' meaning.
		reframed, err := AppendFrame(nil, oneShot)
		if err != nil {
			t.Fatalf("re-encode of accepted %T failed: %v", oneShot, err)
		}
		again, err := Decode(bytes.NewReader(reframed))
		if err != nil {
			t.Fatalf("re-decode of accepted %T failed: %v", oneShot, err)
		}
		if again.MsgType() != oneShot.MsgType() {
			t.Fatalf("round trip changed type: %v -> %v", oneShot.MsgType(), again.MsgType())
		}
	})
}
