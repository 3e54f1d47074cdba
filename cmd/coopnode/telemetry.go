package main

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/tracing"
)

// traceCollector maps the -trace-sample/-trace-out flags onto a trace
// collector, nil when tracing is off. -trace-out with no explicit sampling
// rate traces every push: asking for an output file means the user wants
// spans in it.
func traceCollector(flags cli.TelemetryFlags) *tracing.Collector {
	sample := flags.TraceSample
	if sample <= 0 {
		if flags.TraceOut == "" {
			return nil
		}
		sample = 1
	}
	return tracing.NewCollector(tracing.Config{SampleEvery: sample})
}

// telemetryDump is the -metrics-out file: the node's final metric
// snapshot, the sampler time-series collected over the run, and (for the
// get subcommand) the run summary — everything a scripted run needs to
// reconstruct what the node saw without scraping the HTTP surface.
type telemetryDump struct {
	Snapshot node.MetricsSnapshot `json:"snapshot"`
	Samples  []sampleRow          `json:"samples,omitempty"`
	Summary  any                  `json:"summary,omitempty"`
}

// nodeTelemetry owns the optional observability surfaces for one live
// node: the -metrics-addr HTTP listener, the -dashboard line on stderr,
// and the sampler series backing -metrics-out.
type nodeTelemetry struct {
	flags   cli.TelemetryFlags
	n       *node.Node
	srv     *http.Server
	sampler *sampler
	addr    string // bound HTTP address, "" when -metrics-addr is off
	stopped bool
}

// startTelemetry wires the surfaces requested by flags onto a started
// node. totalPieces sizes the dashboard's progress fraction. The returned
// value is non-nil even when no surface is active, so callers can
// unconditionally stop it.
func startTelemetry(flags cli.TelemetryFlags, n *node.Node, totalPieces int) (*nodeTelemetry, error) {
	t := &nodeTelemetry{flags: flags, n: n}
	if flags.MetricsAddr != "" {
		ln, err := net.Listen("tcp", flags.MetricsAddr)
		if err != nil {
			return nil, fmt.Errorf("metrics listener: %w", err)
		}
		t.addr = ln.Addr().String()
		t.srv = &http.Server{Handler: node.MetricsMux(n)}
		go t.srv.Serve(ln)
	}
	if flags.Dashboard || flags.MetricsOut != "" {
		var onRow func(sampleRow)
		if flags.Dashboard {
			onRow = func(r sampleRow) {
				fmt.Fprintf(os.Stderr, "\r%s", dashboardLine(r, totalPieces))
			}
		}
		t.sampler = startSampler(n, time.Second, onRow)
	}
	return t, nil
}

// stop tears the surfaces down and, when -metrics-out is set, writes the
// dump file; summary is embedded in the dump when non-nil. Idempotent —
// only the first call acts — and safe on a nil receiver. The sampler's
// closing row is taken here, so on a finished download it shows the whole
// file credited.
func (t *nodeTelemetry) stop(summary any) error {
	if t == nil || t.stopped {
		return nil
	}
	t.stopped = true
	var rows []sampleRow
	if t.sampler != nil {
		rows = t.sampler.finish()
		if t.flags.Dashboard {
			fmt.Fprintln(os.Stderr) // leave the last dashboard line visible
		}
	}
	if t.srv != nil {
		t.srv.Close()
	}
	if err := t.writeTrace(); err != nil {
		return err
	}
	if t.flags.MetricsOut == "" {
		return nil
	}
	dump := telemetryDump{Snapshot: t.n.Metrics(), Samples: rows, Summary: summary}
	f, err := os.Create(t.flags.MetricsOut)
	if err != nil {
		return err
	}
	if err := cli.WriteJSON(f, dump); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace dumps the node's collected spans to -trace-out as a Chrome
// trace-event file (load it in chrome://tracing or ui.perfetto.dev).
func (t *nodeTelemetry) writeTrace() error {
	tr := t.n.Tracer()
	if t.flags.TraceOut == "" || tr == nil {
		return nil
	}
	spans, _ := tr.Snapshot()
	f, err := os.Create(t.flags.TraceOut)
	if err != nil {
		return err
	}
	if err := tracing.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sampleRow is one time-series point from the sampler: the aggregate view
// the -dashboard line renders and -metrics-out dumps.
type sampleRow struct {
	// TSec is seconds since sampling started.
	TSec float64 `json:"t_sec"`
	// Pieces and Complete describe download progress.
	Pieces   int  `json:"pieces"`
	Complete bool `json:"complete"`
	// CreditedBytes is cumulative verified download volume; BytesPerSec is
	// its rate over the last sampling interval.
	CreditedBytes int64   `json:"credited_bytes"`
	BytesPerSec   float64 `json:"bytes_per_sec"`
	// ActivePeers is the connected neighbor count.
	ActivePeers int `json:"active_peers"`
	// Jain is the Jain fairness index over per-peer download volume (0
	// until some peer has delivered bytes).
	Jain float64 `json:"jain"`
	// OutboxDepth is the total queued outbound frames across peers.
	OutboxDepth int64 `json:"outbox_depth"`
}

// sampler reduces a node's public reads into one sampleRow per interval,
// plus a closing row when it is finished.
type sampler struct {
	stop chan struct{}
	done chan struct{}
	rows []sampleRow // owned by the sampling goroutine until done closes
}

// startSampler samples n every interval, appending each row to the
// sampler's series and passing it to onRow (nil for none; called from the
// sampler goroutine).
func startSampler(n *node.Node, interval time.Duration, onRow func(sampleRow)) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		start := time.Now()
		var lastBytes int64
		lastT := start
		take := func(now time.Time) {
			row := sampleNode(n, now.Sub(start).Seconds())
			if dt := now.Sub(lastT).Seconds(); dt > 0 {
				row.BytesPerSec = float64(row.CreditedBytes-lastBytes) / dt
			}
			lastBytes, lastT = row.CreditedBytes, now
			s.rows = append(s.rows, row)
			if onRow != nil {
				onRow(row)
			}
		}
		for {
			select {
			case <-s.stop:
				take(time.Now())
				return
			case now := <-ticker.C:
				take(now)
			}
		}
	}()
	return s
}

// finish takes the closing row, halts sampling and returns every row,
// oldest first. Call it once.
func (s *sampler) finish() []sampleRow {
	close(s.stop)
	<-s.done
	return s.rows
}

// sampleNode reduces the node's counters into one row at t seconds: progress
// and peers from Stats, the outbox gauge and the per-peer download counters
// from the metric snapshot.
func sampleNode(n *node.Node, t float64) sampleRow {
	st := n.Stats()
	snap := n.Metrics()
	var perPeer []float64
	for name, b := range snap.Counters {
		if b > 0 && strings.HasPrefix(name, "node_peer_download_bytes_total{") {
			perPeer = append(perPeer, float64(b))
		}
	}
	jain := stats.JainIndex(perPeer)
	if math.IsNaN(jain) || math.IsInf(jain, 0) {
		jain = 0 // keep the row JSON-encodable
	}
	return sampleRow{
		TSec:          t,
		Pieces:        st.Pieces,
		Complete:      st.Complete,
		CreditedBytes: int64(st.CreditedBytes),
		ActivePeers:   st.Neighbors,
		Jain:          jain,
		OutboxDepth:   snap.Gauges["node_outbox_depth"],
	}
}

// dashboardLine renders one row as the -dashboard terminal line.
func dashboardLine(r sampleRow, totalPieces int) string {
	return fmt.Sprintf("t=%5.1fs pieces=%d/%d rate=%8.0f B/s peers=%d jain=%.3f outbox=%d",
		r.TSec, r.Pieces, totalPieces, r.BytesPerSec, r.ActivePeers, r.Jain, r.OutboxDepth)
}
