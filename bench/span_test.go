package main

import (
	"encoding/json"
	"testing"
)

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     float64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 110, End: 150}}, 60},
		{"disjoint children", []span{{Start: 110, End: 120}, {Start: 150, End: 180}}, 60},
		{"overlapping children count once", []span{{Start: 110, End: 160}, {Start: 120, End: 170}, {Start: 130, End: 140}}, 40},
		{"children clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"child outside the parent", []span{{Start: 300, End: 400}}, 100},
		{"children cover everything", []span{{Start: 100, End: 150}, {Start: 150, End: 200}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRecorderSelfTimesAndChromeTrace(t *testing.T) {
	var off *recorder
	if id := off.begin("x", 0, 0, 0); id != 0 || off.snapshot() != nil {
		t.Fatal("a nil recorder must record nothing")
	}
	off.end(0)

	rec := newRecorder("w", 3)
	root := rec.begin("round", 0, 0, 1)
	a := rec.begin("call", root, 1, 1)
	b := rec.begin("call", root, 2, 1)
	rec.end(a)
	rec.end(b)
	rec.end(root)
	spans := rec.snapshot()
	if len(spans) != 3 || spans[1].Parent != root || spans[2].Lane != 2 || spans[0].Rep != 3 || spans[0].Round != 1 {
		t.Fatalf("spans = %+v", spans)
	}

	// Fixed times make the arithmetic checkable: the two calls overlap.
	spans[0].Start, spans[0].End = 0, 10e6
	spans[1].Start, spans[1].End = 1e6, 5e6
	spans[2].Start, spans[2].End = 3e6, 8e6
	rows := selfTimes(spans)
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if r := rows[0]; r.Name != "round" || r.Count != 1 || r.TotalS != 10 || r.SelfS != 3 {
		t.Errorf("round row = %+v, want total 10 self 3", r)
	}
	if r := rows[1]; r.Name != "call" || r.Count != 2 || r.TotalS != 9 || r.SelfS != 9 {
		t.Errorf("call row = %+v, want total 9 self 9", r)
	}

	data, err := chromeTrace(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Tid  int
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[2].Ph != "X" || doc.TraceEvents[2].Ts != 3e6 || doc.TraceEvents[2].Dur != 5e6 || doc.TraceEvents[2].Tid != 2 {
		t.Errorf("trace events = %+v", doc.TraceEvents)
	}
}
