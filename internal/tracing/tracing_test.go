package tracing

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSamplingDeterministic(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 4})
	var hits int
	for i := 0; i < 16; i++ {
		if c.Sample() {
			hits++
		}
	}
	if hits != 4 {
		t.Fatalf("SampleEvery=4 over 16 ticks sampled %d times, want 4", hits)
	}
	if !NewCollector(Config{SampleEvery: 1}).Sample() {
		t.Fatal("SampleEvery=1 must sample the first tick")
	}
	if NewCollector(Config{}).Sample() {
		t.Fatal("SampleEvery=0 must never sample")
	}
	var nilC *Collector
	if nilC.Sample() {
		t.Fatal("nil collector must never sample")
	}
}

func TestIDsNonzeroUnique(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 1})
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := c.NewID()
		if id == 0 {
			t.Fatal("minted a zero ID")
		}
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
	}
}

func TestRingWrapDropsOldest(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 1, Capacity: 4})
	for i := 1; i <= 7; i++ {
		c.Record(Span{TraceID: 1, SpanID: uint64(i), Name: SpanWireSend, Peer: -1, Piece: -1})
	}
	spans, dropped := c.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want ring capacity 4", len(spans))
	}
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3", dropped)
	}
	for i, s := range spans {
		if want := uint64(4 + i); s.SpanID != want {
			t.Fatalf("span[%d].SpanID = %d, want %d (oldest-first order)", i, s.SpanID, want)
		}
	}
}

func TestTracesGroupingAndOrder(t *testing.T) {
	spans := []Span{
		{TraceID: 1, SpanID: 1, Name: SpanRequestQueued, Start: 100, Dur: 10, Peer: -1, Piece: 0},
		{TraceID: 2, SpanID: 2, Name: SpanRequestQueued, Start: 100, Dur: 500, Peer: -1, Piece: 1},
		{TraceID: 0, SpanID: 3, Name: SpanChoke, Start: 50, Peer: 2, Piece: -1},
		{TraceID: 1, SpanID: 4, ParentID: 1, Name: SpanWireSend, Start: 110, Dur: 20, Peer: -1, Piece: 0},
	}
	ts := Traces(spans)
	if len(ts) != 2 {
		t.Fatalf("got %d traces, want 2 (zero trace ID excluded)", len(ts))
	}
	if ts[0].ID != 2 {
		t.Fatalf("slowest trace first: got trace %d, want 2", ts[0].ID)
	}
	if ts[1].ID != 1 || len(ts[1].Spans) != 2 {
		t.Fatalf("trace 1 grouping wrong: %+v", ts[1])
	}
	if got := ts[1].Duration(); got != 30 {
		t.Fatalf("trace 1 duration = %d, want 30", got)
	}
}

func TestRenderTree(t *testing.T) {
	tr := Trace{ID: 7, Spans: []Span{
		{TraceID: 7, SpanID: 1, Name: SpanRequestQueued, Node: 0, Peer: 1, Piece: 3, Start: 1000, Dur: 100},
		{TraceID: 7, SpanID: 2, ParentID: 1, Name: SpanWireSend, Node: 0, Peer: 1, Piece: 3, Start: 1100, Dur: 200},
		{TraceID: 7, SpanID: 3, ParentID: 2, Name: SpanStoreVerify, Node: 1, Peer: 0, Piece: 3, Start: 1400, Dur: 50},
	}}
	var b bytes.Buffer
	if err := RenderTree(&b, tr); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"trace 0000000000000007", SpanRequestQueued, SpanWireSend, SpanStoreVerify, "node=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("RenderTree output missing %q:\n%s", want, out)
		}
	}
	// store.verify is a grandchild: two levels deeper than the root.
	if !strings.Contains(out, "      "+SpanStoreVerify) {
		t.Fatalf("store.verify not indented as a grandchild:\n%s", out)
	}
}

func TestWriteChromeTraceValidJSON(t *testing.T) {
	spans := []Span{
		{TraceID: 1, SpanID: 1, Name: SpanRequestQueued, Node: 0, Peer: 1, Piece: 0, Start: 5_000_000, Dur: 1_000_000},
		{TraceID: 1, SpanID: 2, ParentID: 1, Name: SpanWireRecv, Node: 1, Peer: 0, Piece: 0, Start: 6_000_000},
	}
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, b.String())
	}
	// 2 process_name metadata events + 1 duration + 1 instant.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	var phX, phI, phM int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			phX++
			if ev["dur"].(float64) != 1000 {
				t.Fatalf("duration event dur = %v µs, want 1000", ev["dur"])
			}
		case "i":
			phI++
			if ev["ts"].(float64) != 1000 {
				t.Fatalf("instant ts = %v µs, want 1000 (rebased)", ev["ts"])
			}
		case "M":
			phM++
		}
	}
	if phX != 1 || phI != 1 || phM != 2 {
		t.Fatalf("event mix X=%d i=%d M=%d, want 1/1/2", phX, phI, phM)
	}
}

// BenchmarkSampleDisabled pins the disabled-path cost: a nil collector's
// Sample must be a branch, not an allocation.
func BenchmarkSampleDisabled(b *testing.B) {
	var c *Collector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c.Sample() {
			b.Fatal("nil collector sampled")
		}
	}
}

func BenchmarkRecord(b *testing.B) {
	c := NewCollector(Config{SampleEvery: 1})
	s := Span{TraceID: 1, SpanID: 2, Name: SpanWireSend, Peer: -1, Piece: -1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Record(s)
	}
}
