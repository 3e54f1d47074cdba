package protocol

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// countingWriter records the number of Write calls, to pin EncodeTo's
// one-syscall-per-frame contract.
type countingWriter struct {
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

func TestEncodeToSingleWrite(t *testing.T) {
	w := &countingWriter{}
	msgs := []Message{
		Hello{PeerID: 1, NumPieces: 64, Addr: "mem://0"},
		Piece{Index: 5, RepaysKeyID: NoRepay, Data: make([]byte, 4096)},
		SealedPiece{Index: 2, KeyID: 9, Ciphertext: make([]byte, 1024), OriginAddr: "mem://1"},
		Bye{},
	}
	for i, m := range msgs {
		if err := EncodeTo(w, m); err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		if w.writes != i+1 {
			t.Fatalf("%T took %d Write calls, want exactly one per frame", m, w.writes-i)
		}
	}
	for _, want := range msgs {
		got, err := Decode(&w.buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.MsgType() != want.MsgType() {
			t.Fatalf("decoded %v, want %v", got.MsgType(), want.MsgType())
		}
	}
}

func TestAppendFrameExtendsBuffer(t *testing.T) {
	// Frames append back to back and decode in order from one buffer.
	var buf []byte
	var err error
	for i := int32(0); i < 5; i++ {
		buf, err = AppendFrame(buf, Have{Index: i})
		if err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf)
	for i := int32(0); i < 5; i++ {
		m, err := Decode(r)
		if err != nil {
			t.Fatal(err)
		}
		if m.(Have).Index != i {
			t.Fatalf("frame %d decoded as %+v", i, m)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left over", r.Len())
	}
}

func TestAppendFrameErrorLeavesDstUnextended(t *testing.T) {
	prefix, err := AppendFrame(nil, Have{Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := len(prefix)
	out, err := AppendFrame(prefix, Piece{Data: make([]byte, MaxFrameSize)})
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
	if len(out) != n {
		t.Fatalf("dst grew from %d to %d bytes on error", n, len(out))
	}
}

func TestDecoderStreamsFrames(t *testing.T) {
	var buf bytes.Buffer
	want := []Message{
		Hello{PeerID: 3, NumPieces: 16, Addr: "a"},
		Have{Index: 7},
		Piece{Index: 1, RepaysKeyID: NoRepay, Data: []byte("abc")},
		Bye{},
	}
	for _, m := range want {
		if err := EncodeTo(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf)
	for i, w := range want {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if p, ok := got.(Piece); ok {
			// Normalize the zero-copy alias for comparison.
			p.Data = append([]byte(nil), p.Data...)
			got = p
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("frame %d:\n got %#v\nwant %#v", i, got, w)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Errorf("after last frame err = %v, want io.EOF", err)
	}
}

func TestDecoderScratchReuse(t *testing.T) {
	// The zero-copy contract: a Piece's Data aliases decoder scratch and is
	// overwritten by the next Decode of an equal-or-smaller frame.
	var buf bytes.Buffer
	first := bytes.Repeat([]byte{0xAA}, 64)
	second := bytes.Repeat([]byte{0xBB}, 64)
	if err := EncodeTo(&buf, Piece{Index: 0, RepaysKeyID: NoRepay, Data: first}); err != nil {
		t.Fatal(err)
	}
	if err := EncodeTo(&buf, Piece{Index: 1, RepaysKeyID: NoRepay, Data: second}); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf)
	m1, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	data1 := m1.(Piece).Data
	if !bytes.Equal(data1, first) {
		t.Fatal("first decode corrupted")
	}
	m2, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m2.(Piece).Data, second) {
		t.Fatal("second decode corrupted")
	}
	// data1 aliased the scratch, which the second Decode rewrote.
	if bytes.Equal(data1, first) {
		t.Error("scratch was not reused: first payload survived the next Decode (zero-copy contract not exercised)")
	}
}

// TestDecoderOwnsCiphertext: a receiver parks a SealedPiece's ciphertext
// until its key lands, so the scratch decoder hands it out as storage of its
// own — byte-identical after the next Decode has rewritten the scratch.
func TestDecoderOwnsCiphertext(t *testing.T) {
	var buf bytes.Buffer
	first := bytes.Repeat([]byte{0xAA}, 64)
	for i, ct := range [][]byte{first, bytes.Repeat([]byte{0xBB}, 64)} {
		if err := EncodeTo(&buf, SealedPiece{Index: int32(i), KeyID: uint64(i), Ciphertext: ct}); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf)
	m1, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(); err != nil {
		t.Fatal(err)
	}
	if got := m1.(SealedPiece).Ciphertext; !bytes.Equal(got, first) {
		t.Errorf("first ciphertext after the next Decode = %x…, want it intact", got[:4])
	}
}

func TestPackageDecodeOwnsStorage(t *testing.T) {
	// The one-shot Decode must return retainable storage even when frames
	// share a reader.
	var buf bytes.Buffer
	first := bytes.Repeat([]byte{0xAA}, 64)
	second := bytes.Repeat([]byte{0xBB}, 64)
	if err := EncodeTo(&buf, Piece{Index: 0, RepaysKeyID: NoRepay, Data: first}); err != nil {
		t.Fatal(err)
	}
	if err := EncodeTo(&buf, Piece{Index: 1, RepaysKeyID: NoRepay, Data: second}); err != nil {
		t.Fatal(err)
	}
	m1, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	data1 := m1.(Piece).Data
	if _, err := Decode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data1, first) {
		t.Error("package-level Decode returned aliased storage")
	}
}

// BenchmarkFrameRoundTrip drives the steady-state wire path — EncodeTo with
// a pooled frame buffer into a Decoder with reusable scratch — and is the
// allocs-per-frame guard scripts/check.sh pins: after warm-up, one
// piece-sized frame through encode+decode must not allocate.
func BenchmarkFrameRoundTrip(b *testing.B) {
	data := make([]byte, 8<<10)
	// Box the message once, outside the loop, as the node's send queue does:
	// the per-frame path under measurement is encode+decode, not interface
	// conversion at the call site.
	var msg Message = Piece{Index: 42, RepaysKeyID: NoRepay, Data: data}
	var buf bytes.Buffer
	dec := NewDecoder(&buf)
	// Warm the frame pool and decoder scratch to this frame size.
	if err := EncodeTo(&buf, msg); err != nil {
		b.Fatal(err)
	}
	if _, err := dec.Decode(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := EncodeTo(&buf, msg); err != nil {
			b.Fatal(err)
		}
		if _, err := dec.Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHaveBatchRoundTripAllocs pins what a coalesced announcement costs on
// the coded path: encoding one allocates nothing (pooled frame buffer), and
// decoding one allocates exactly the index slice on top of what a single
// Have costs (the interface box every decoded frame above index 255 pays),
// whether or not it also carries requests: both lists share that slice.
func TestHaveBatchRoundTripAllocs(t *testing.T) {
	var buf bytes.Buffer
	dec := NewDecoder(&buf)
	encode := func(m Message) {
		if err := EncodeTo(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	decode := func() Message {
		got, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	measure := func(m Message) (encAllocs, decAllocs float64) {
		encode(m) // warm the frame pool and the decoder scratch
		decode()
		encAllocs = testing.AllocsPerRun(200, func() { buf.Reset(); encode(m) })
		buf.Reset()
		return encAllocs, testing.AllocsPerRun(200, func() { encode(m); decode() }) - encAllocs
	}
	haveEnc, haveDec := measure(Have{Index: 300})
	for _, batch := range []Message{
		HaveBatch{Indices: []int32{300, 301, 4095, 256, 1024, 2048, 777, 3000}},
		HaveBatch{Indices: []int32{300, 301, 4095, 256}, Requests: []int32{1024, 2048, 777, 3000}},
	} {
		batchEnc, batchDec := measure(batch)
		if haveEnc != 0 || batchEnc != 0 {
			t.Errorf("encode allocs: Have %.0f, %+v %.0f, want 0 and 0", haveEnc, batch, batchEnc)
		}
		if batchDec-haveDec != 1 {
			t.Errorf("decode allocs: Have %.0f, %+v %.0f, want exactly one more (the index slice)", haveDec, batch, batchDec)
		}
		encode(batch)
		if got := decode(); !reflect.DeepEqual(got, batch) {
			t.Errorf("round trip: got %#v, want %#v", got, batch)
		}
	}
}
