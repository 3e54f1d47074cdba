package main

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// microseconds since the recorder was created.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 for a root
	Name     string  `json:"name"`
	Start    float64 `json:"start_us"`
	End      float64 `json:"end_us"`
	Lane     int     `json:"lane"` // 0 is the driving goroutine, i the i-th leecher's waiter
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
	Round    int     `json:"round"`
}

// recorder keeps the benchmark's own spans in memory until the run ends. A
// nil *recorder records nothing, which is how tracing is switched off: the
// end-to-end metrics come from rounds that ran with a nil recorder.
type recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	rep      int
	spans    []span
}

func newRecorder(workload string, rep int) *recorder {
	return &recorder{epoch: time.Now(), workload: workload, rep: rep}
}

func (r *recorder) now() float64 { return float64(time.Since(r.epoch).Nanoseconds()) / 1e3 }

// begin opens a span and returns its id for end and for children to name as
// their parent.
func (r *recorder) begin(name string, parent, lane, round int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Start: r.now(), Lane: lane,
		Workload: r.workload, Rep: r.rep, Round: round,
	})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = r.now()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTime is span minus the part of its interval that its children cover;
// overlapping children (parallel leecher waits) are counted once.
func selfTime(s span, children []span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, edge := 0.0, s.Start
	for _, v := range ivs {
		if v.b <= edge {
			continue
		}
		covered += v.b - max(v.a, edge)
		edge = v.b
	}
	return (s.End - s.Start) - covered
}

// spanTotals is one row of the self-time table: every span of one name.
type spanTotals struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	TotalS   float64 `json:"total_s"`
	SelfS    float64 `json:"self_s"`
	Workload string  `json:"workload"`
}

// selfTimes sums duration and self time per (workload, span name), in order
// of first appearance. Span ids restart per recorder, so parents are looked
// up within a workload (a set traces each workload in one process).
func selfTimes(spans []span) []spanTotals {
	type spanKey struct {
		workload string
		id       int
	}
	children := map[spanKey][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			k := spanKey{s.Workload, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	index := map[[2]string]int{}
	var rows []spanTotals
	for _, s := range spans {
		k := [2]string{s.Workload, s.Name}
		i, ok := index[k]
		if !ok {
			i = len(rows)
			index[k] = i
			rows = append(rows, spanTotals{Name: s.Name, Workload: s.Workload})
		}
		rows[i].Count++
		rows[i].TotalS += (s.End - s.Start) / 1e6
		rows[i].SelfS += selfTime(s, children[spanKey{s.Workload, s.ID}]) / 1e6
	}
	return rows
}

// chromeTrace renders spans as Chrome trace-event JSON (loads in Perfetto):
// one process row per workload, one thread row per lane.
func chromeTrace(spans []span) ([]byte, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	pids := map[string]int{}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		pid, ok := pids[s.Workload]
		if !ok {
			pid = len(pids) + 1
			pids[s.Workload] = pid
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Ts: s.Start, Dur: s.End - s.Start, Pid: pid, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload, "rep": s.Rep, "round": s.Round},
		})
	}
	return json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
