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
// (DESIGN.md §7): snake_case, a subsystem prefix (node_), counters
// suffixed _total (_bytes_total for byte volumes). A series may carry one
// static label block baked into its name —
// `node_peer_download_bytes_total{peer="3"}` — which the Prometheus writer
// emits verbatim under its family's TYPE line.
//
// Lookup methods are get-or-create and mutex-protected; hot paths hold
// the returned metric pointer and never touch the registry again.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gaugeFuncs map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
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
	// Counters maps series name to counter value.
	Counters map[string]int64 `json:"counters"`
	// Gauges maps series name to instantaneous value.
	Gauges map[string]int64 `json:"gauges"`
}

// Snapshot captures every registered metric. Gauge functions run after
// the registry lock is released, so they may take their own locks.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	funcs := make(map[string]func() int64, len(r.gaugeFuncs))
	for name, fn := range r.gaugeFuncs {
		funcs[name] = fn
	}
	r.mu.Unlock()

	snap := Snapshot{
		Counters: make(map[string]int64, len(counters)),
		Gauges:   make(map[string]int64, len(funcs)),
	}
	for name, c := range counters {
		snap.Counters[name] = c.Value()
	}
	for name, fn := range funcs {
		snap.Gauges[name] = fn()
	}
	return snap
}

// family returns a series name without its baked-in label block:
// `a_total{peer="3"}` → `a_total`.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i]
	}
	return name
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` line per family, series sorted
// lexically, counters before gauges. Output is deterministic for a given
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
			if f := family(name); !typed[f] {
				typed[f] = true
				if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f, kind); err != nil {
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
	return emit("gauge", s.Gauges)
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
