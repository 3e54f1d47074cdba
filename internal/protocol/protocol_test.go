package protocol

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/attest"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeTo(&buf, m); err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left after one frame", buf.Len())
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	msgs := []Message{
		Hello{PeerID: 7, NumPieces: 512, Addr: "127.0.0.1:9000"},
		Hello{PeerID: 8, NumPieces: 512, Addr: "127.0.0.1:9001", PubKey: bytes.Repeat([]byte{0xb7}, 32)},
		Bitfield{NumPieces: 12, Bits: []byte{0xff, 0x0f}},
		Have{Index: 42},
		HaveBatch{},
		HaveBatch{Indices: []int32{300}},
		HaveBatch{Indices: []int32{7, 4095, 0, 256}},
		HaveBatch{Requests: []int32{5}},
		HaveBatch{Indices: []int32{7, 4095}, Requests: []int32{3, 9, 4000}},
		Piece{Index: 3, RepaysKeyID: NoRepay, Data: []byte("payload")},
		Piece{Index: 3, RepaysKeyID: 77, Data: nil},
		SealedPiece{
			Index: 9, KeyID: 123,
			Nonce:      [16]byte{1, 2, 3},
			Ciphertext: []byte{9, 9, 9},
			OriginID:   4, OriginAddr: "mem://a",
			Forwarded: true, ForwarderID: 5,
		},
		Key{KeyID: 55, Index: 2, Key: [32]byte{0xaa}},
		AttestedReceipt{KeyID: 55, Att: attest.Claim(4, 6, 2, 1024)}, // an unsigned witness's receipt
		Bye{},
		Nodes{Contacts: []NodeInfo{{ID: 3, Addr: "mem://3"}, {ID: 9, Addr: "127.0.0.1:9000"}}},
		Nodes{},
		Attest{Att: attest.Attestation{
			Sender: 3, Receiver: 4, Index: 11,
			Hash:  [32]byte{0xde, 0xad},
			Bytes: 4096, Seq: 9,
			Scheme: attest.SchemeEd25519,
			Sig:    [64]byte{0x01, 0x02},
		}},
		AttestedReceipt{KeyID: 77, Att: attest.Attestation{
			Sender: 5, Receiver: 6, Index: 0,
			Bytes: 1024, Seq: 1,
			Scheme: attest.SchemeSession,
			Sig:    [64]byte{0xfe},
		}},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		want := m
		// nil vs empty slices normalize to empty on decode.
		if p, ok := want.(Piece); ok && p.Data == nil {
			p.Data = []byte{}
			want = p
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip %T:\n got %#v\nwant %#v", m, got, want)
		}
		if got.MsgType() != m.MsgType() {
			t.Errorf("%T type = %v", m, got.MsgType())
		}
	}
}

func TestTypeStrings(t *testing.T) {
	for _, tt := range []Type{TypeHello, TypeBitfield, TypeHave, TypePiece, TypeSealedPiece, TypeKey, TypeBye, TypeNodes, TypeAttest, TypeAttestedReceipt, TypeHaveBatch} {
		if s := tt.String(); s == "" || strings.HasPrefix(s, "type(") {
			t.Errorf("type %d has no name: %q", tt, s)
		}
	}
	if Type(200).String() != "type(200)" {
		t.Error("unknown type string wrong")
	}
}

// TestDecodeRejectsUnknownType: a tag no sender uses is refused, and so is
// every retired one, even carrying the payload its old type had.
func TestDecodeRejectsUnknownType(t *testing.T) {
	if TypeNodes != 11 || TypeAttest != 13 {
		t.Fatalf("TypeNodes = %d, TypeAttest = %d, want 11 and 13 (9, 10 and 12 stay retired)", TypeNodes, TypeAttest)
	}
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"never-assigned-99", []byte{0, 0, 0, 0, 99}},
		{"retired-ping", []byte{0, 0, 0, 5, 9, 0, 0, 0, 17, 1}},                               // Ping{Seq: 17, Ack: true}
		{"retired-find-node", []byte{0, 0, 0, 12, 10, 0, 0, 0, 18, 0, 0, 0, 0, 0, 0, 0, 1}},   // FindNode{Seq: 18, Target: 1}
		{"retired-announce", []byte{0, 0, 0, 13, 12, 0, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0, 4, 2}}, // Announce{ID: 12, Addr: "", Seq: 4, TTL: 2}
	} {
		if _, err := Decode(bytes.NewReader(tc.raw)); !errors.Is(err, ErrUnknownType) {
			t.Errorf("%s: err = %v, want ErrUnknownType", tc.name, err)
		}
	}
}

// A Nodes count the payload cannot hold is malformed, and refused before
// the contact slice is allocated.
func TestDecodeRejectsNodesCountOverrun(t *testing.T) {
	raw := []byte{0, 0, 0, 8, byte(TypeNodes), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1}
	if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

// Wire type 15 carried AttestBatch, which no sender ever built; the number
// is retired, not recycled, so an old frame is refused rather than misread.
func TestDecodeRejectsRetiredType15(t *testing.T) {
	if TypeHaveBatch != 16 {
		t.Fatalf("TypeHaveBatch = %d, want 16 (15 stays retired)", TypeHaveBatch)
	}
	for _, raw := range [][]byte{
		{0, 0, 0, 0, 15},
		{0, 0, 0, 4, 15, 0, 0, 0, 0}, // a well-formed empty AttestBatch
	} {
		if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrUnknownType) {
			t.Errorf("type 15 frame %x: err = %v, want ErrUnknownType", raw, err)
		}
	}
}

// Wire type 7 carried Receipt{KeyID, From}, which AttestedReceipt carrying an
// unsigned claim says whole; the number is retired the same way.
func TestDecodeRejectsRetiredType7(t *testing.T) {
	if TypeKey != 6 || TypeBye != 8 {
		t.Fatalf("TypeKey = %d, TypeBye = %d, want 6 and 8 (7 stays retired)", TypeKey, TypeBye)
	}
	for _, raw := range [][]byte{
		{0, 0, 0, 0, 7},
		{0, 0, 0, 12, 7, 0, 0, 0, 0, 0, 0, 0, 55, 0, 0, 0, 4}, // a well-formed Receipt{55, 4}
	} {
		if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrUnknownType) {
			t.Errorf("type 7 frame %x: err = %v, want ErrUnknownType", raw, err)
		}
	}
}

// A HaveBatch whose counts disagree with its payload is malformed in either
// direction, and is refused before the index slice is allocated: a forged
// count of 2^32-1, of announcements or of requests, must cost nothing.
func TestDecodeRejectsHaveBatchCountMismatch(t *testing.T) {
	overrun := []byte{0, 0, 0, 8, byte(TypeHaveBatch), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1}
	askOverrun := []byte{0, 0, 0, 8, byte(TypeHaveBatch), 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}
	short := []byte{0, 0, 0, 12, byte(TypeHaveBatch), 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2}
	truncated := []byte{0, 0, 0, 2, byte(TypeHaveBatch), 0, 0}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, raw := range [][]byte{overrun, askOverrun, short, truncated} {
		if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrMalformed) {
			t.Errorf("frame %x: err = %v, want ErrMalformed", raw, err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing four 7-17 byte frames allocated %d bytes", grew)
	}
}

func TestDecodeRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, byte(TypeBye)})
	if _, err := Decode(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	var buf bytes.Buffer
	// Have payload is 4 bytes; declare 8.
	buf.Write([]byte{0, 0, 0, 8, byte(TypeHave)})
	buf.Write(make([]byte, 8))
	if _, err := Decode(&buf); !errors.Is(err, ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

func TestDecodeRejectsTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	// Piece with a data length pointing past the payload end.
	buf.Write([]byte{0, 0, 0, 16, byte(TypePiece)})
	payload := make([]byte, 16)
	payload[15] = 0xff // data length claims 255 bytes, none present
	buf.Write(payload)
	if _, err := Decode(&buf); err == nil {
		t.Error("truncated piece accepted")
	}
}

func TestDecodeEOFPassesThrough(t *testing.T) {
	if _, err := Decode(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want io.EOF", err)
	}
}

func TestEncodeRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	big := Piece{Index: 0, RepaysKeyID: NoRepay, Data: make([]byte, MaxFrameSize)}
	if err := EncodeTo(&buf, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := int32(0); i < 10; i++ {
		if err := EncodeTo(&buf, Have{Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(0); i < 10; i++ {
		m, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if m.(Have).Index != i {
			t.Fatalf("frame %d = %+v", i, m)
		}
	}
}

func TestPieceRoundTripProperty(t *testing.T) {
	f := func(index int32, keyID uint64, data []byte) bool {
		var buf bytes.Buffer
		if err := EncodeTo(&buf, Piece{Index: index, RepaysKeyID: keyID, Data: data}); err != nil {
			return len(data) > MaxFrameSize-64
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		p, ok := got.(Piece)
		return ok && p.Index == index && p.RepaysKeyID == keyID && bytes.Equal(p.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeFuzzDoesNotPanic(t *testing.T) {
	// Arbitrary garbage must produce errors, never panics.
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %x: %v", raw, r)
			}
		}()
		_, _ = Decode(bytes.NewReader(raw))
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
