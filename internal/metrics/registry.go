package metrics

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Registry is a namespace of metrics. Names follow the repo's scheme
// (DESIGN.md §7): snake_case, a subsystem prefix (node_),
// counters suffixed _total (_bytes_total for byte volumes),
// nanosecond histograms suffixed _ns. A series may carry one static
// label baked into its name — `node_peer_upload_bytes_total{peer="3"}` —
// which the Prometheus writer emits verbatim and merges with the
// histogram `le` label.
//
// Lookup methods are get-or-create and mutex-protected; hot paths hold
// the returned metric pointer and never touch the registry again.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
	gaugeFuncs map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
		gaugeFuncs: make(map[string]func() int64),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = NewCounter()
		r.counters[name] = c
	}
	return c
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// RegisterGaugeFunc registers a gauge. Gauges are pull-style: computed at
// snapshot time from values already maintained elsewhere (store piece
// counts, peer-map sizes, queue depths). fn runs outside the registry
// lock and must be safe to call from any goroutine; it must not call back
// into Snapshot.
func (r *Registry) RegisterGaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Snapshot is a point-in-time view of a Registry, JSON-round-trippable
// (the /metrics?format=json payload decodes back into this type). See the
// package comment for the consistency model.
type Snapshot struct {
	// Counters maps series name to merged counter value.
	Counters map[string]int64 `json:"counters"`
	// Gauges maps series name to instantaneous value.
	Gauges map[string]int64 `json:"gauges"`
	// Histograms maps series name to merged histogram state.
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric. Gauge functions run after
// the registry lock is released, so they may take their own locks.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		hists[name] = h
	}
	funcs := make(map[string]func() int64, len(r.gaugeFuncs))
	for name, fn := range r.gaugeFuncs {
		funcs[name] = fn
	}
	r.mu.Unlock()

	snap := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(funcs)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for name, c := range counters {
		snap.Counters[name] = c.Value()
	}
	for name, fn := range funcs {
		snap.Gauges[name] = fn()
	}
	for name, h := range hists {
		snap.Histograms[name] = h.Snapshot()
	}
	return snap
}

// splitSeries separates a series name into its family and the baked-in
// label block (without braces): `a_total{peer="3"}` → (`a_total`,
// `peer="3"`).
func splitSeries(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// seriesWithLabel re-joins a family with label blocks, dropping empties:
// (`a_bucket`, `peer="3"`, `le="7"`) → `a_bucket{peer="3",le="7"}`.
func seriesWithLabel(family string, labels ...string) string {
	live := labels[:0]
	for _, l := range labels {
		if l != "" {
			live = append(live, l)
		}
	}
	if len(live) == 0 {
		return family
	}
	return family + "{" + strings.Join(live, ",") + "}"
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` line per family, series sorted
// lexically, histograms expanded into cumulative `_bucket{le=…}` lines
// plus `_sum` and `_count`. Output is deterministic for a given
// snapshot, which the golden-file test relies on.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	emit := func(kind string, byName map[string]int64) error {
		names := make([]string, 0, len(byName))
		for name := range byName {
			names = append(names, name)
		}
		sort.Strings(names)
		typed := make(map[string]bool)
		for _, name := range names {
			family, _ := splitSeries(name)
			if !typed[family] {
				typed[family] = true
				if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, kind); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", name, byName[name]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit("counter", s.Counters); err != nil {
		return err
	}
	if err := emit("gauge", s.Gauges); err != nil {
		return err
	}

	histNames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		histNames = append(histNames, name)
	}
	sort.Strings(histNames)
	typed := make(map[string]bool)
	for _, name := range histNames {
		family, labels := splitSeries(name)
		if !typed[family] {
			typed[family] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", family); err != nil {
				return err
			}
		}
		h := s.Histograms[name]
		var cum uint64
		for i, n := range h.Buckets {
			cum += n
			if n == 0 && i != len(h.Buckets)-1 {
				continue // keep the output compact; cumulative stays correct
			}
			le := fmt.Sprintf(`le="%g"`, BucketUpperBound(i))
			if _, err := fmt.Fprintf(w, "%s %d\n", seriesWithLabel(family+"_bucket", labels, le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", seriesWithLabel(family+"_bucket", labels, `le="+Inf"`), h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", seriesWithLabel(family+"_sum", labels), h.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", seriesWithLabel(family+"_count", labels), h.Count); err != nil {
			return err
		}
	}
	return nil
}

// expvarMu guards duplicate-name checks around expvar.Publish, which
// panics on reuse.
var expvarMu sync.Mutex

// PublishExpvar exposes the registry under name in the process's expvar
// namespace (the standard /debug/vars page), as a nested object mirroring
// Snapshot. Publishing the same name twice is a silent no-op — expvar's
// namespace is process-global, while registries are per-node.
func (r *Registry) PublishExpvar(name string) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
