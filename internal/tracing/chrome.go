package tracing

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Trace is one causal trace: every span sharing a trace ID, sorted by
// start time.
type Trace struct {
	ID    uint64
	Spans []Span
}

// Duration is the trace's wall-clock extent: latest span end minus
// earliest span start.
func (t Trace) Duration() int64 {
	if len(t.Spans) == 0 {
		return 0
	}
	start, end := t.Spans[0].Start, t.Spans[0].End()
	for _, s := range t.Spans[1:] {
		start = min(start, s.Start)
		end = max(end, s.End())
	}
	return end - start
}

// Nodes returns the distinct node IDs that contributed spans, ascending.
func (t Trace) Nodes() []int {
	seen := map[int]bool{}
	var out []int
	for _, s := range t.Spans {
		if !seen[s.Node] {
			seen[s.Node] = true
			out = append(out, s.Node)
		}
	}
	sort.Ints(out)
	return out
}

// Traces groups spans by trace ID, slowest trace first. Spans with a zero
// trace ID (swarm-wide events: chokes, rewires) are excluded.
func Traces(spans []Span) []Trace {
	byID := map[uint64][]Span{}
	for _, s := range spans {
		if s.TraceID == 0 {
			continue
		}
		byID[s.TraceID] = append(byID[s.TraceID], s)
	}
	out := make([]Trace, 0, len(byID))
	for id, ss := range byID {
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].Start != ss[j].Start {
				return ss[i].Start < ss[j].Start
			}
			return ss[i].SpanID < ss[j].SpanID
		})
		out = append(out, Trace{ID: id, Spans: ss})
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].Duration(), out[j].Duration()
		if di != dj {
			return di > dj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// RenderTree writes the trace as an indented span tree: children under
// their parents, siblings by start time, offsets relative to the trace's
// first span. Spans whose parent is missing (e.g. overwritten in the
// ring) render as roots.
func RenderTree(w io.Writer, t Trace) error {
	if len(t.Spans) == 0 {
		return nil
	}
	base := t.Spans[0].Start
	for _, s := range t.Spans {
		base = min(base, s.Start)
	}
	present := map[uint64]bool{}
	for _, s := range t.Spans {
		present[s.SpanID] = true
	}
	children := map[uint64][]Span{}
	var roots []Span
	for _, s := range t.Spans {
		if s.ParentID != 0 && present[s.ParentID] && s.ParentID != s.SpanID {
			children[s.ParentID] = append(children[s.ParentID], s)
		} else {
			roots = append(roots, s)
		}
	}
	if _, err := fmt.Fprintf(w, "trace %016x: %d spans across nodes %v, %.3fms\n",
		t.ID, len(t.Spans), t.Nodes(), float64(t.Duration())/1e6); err != nil {
		return err
	}
	var render func(s Span, depth int) error
	render = func(s Span, depth int) error {
		line := fmt.Sprintf("%s%s node=%d", strings.Repeat("  ", depth+1), s.Name, s.Node)
		if s.Peer >= 0 {
			line += fmt.Sprintf(" peer=%d", s.Peer)
		}
		if s.Piece >= 0 {
			line += fmt.Sprintf(" piece=%d", s.Piece)
		}
		line += fmt.Sprintf(" +%.3fms", float64(s.Start-base)/1e6)
		if s.Dur > 0 {
			line += fmt.Sprintf(" %.3fms", float64(s.Dur)/1e6)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		for _, c := range children[s.SpanID] {
			if err := render(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := render(r, 0); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace event format ("JSON Object
// Format"), loadable by chrome://tracing and Perfetto.
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Pid   int            `json:"pid"`
	Tid   uint64         `json:"tid"`
	Ts    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes spans as a Chrome trace event file. Each node
// becomes a process (pid = node ID, named via process_name metadata) and
// each trace a thread within it (tid = trace ID), so Perfetto lays the
// cross-node story of one trace out as aligned rows. Timestamps are
// rebased to the earliest span and expressed in microseconds, durations
// likewise; zero-duration spans are emitted as instant events.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	var base int64
	nodes := map[int]bool{}
	for i, s := range spans {
		if i == 0 || s.Start < base {
			base = s.Start
		}
		nodes[s.Node] = true
	}
	nodeIDs := make([]int, 0, len(nodes))
	for n := range nodes {
		nodeIDs = append(nodeIDs, n)
	}
	sort.Ints(nodeIDs)
	for _, n := range nodeIDs {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: n,
			Args: map[string]any{"name": fmt.Sprintf("node %d", n)},
		})
	}
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			Pid:  s.Node,
			Tid:  s.TraceID,
			Ts:   float64(s.Start-base) / 1e3,
			Args: map[string]any{
				"trace": fmt.Sprintf("%016x", s.TraceID),
				"span":  s.SpanID,
			},
		}
		if s.ParentID != 0 {
			ev.Args["parent"] = s.ParentID
		}
		if s.Piece >= 0 {
			ev.Args["piece"] = s.Piece
		}
		if s.Peer >= 0 {
			ev.Args["peer"] = s.Peer
		}
		if s.Dur > 0 {
			ev.Ph = "X"
			dur := float64(s.Dur) / 1e3
			ev.Dur = &dur
		} else {
			ev.Ph = "i"
			ev.Scope = "t"
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
