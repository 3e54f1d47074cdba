// Package cli holds the flag plumbing shared by the command-line tools
// (coopsim, coopbench, coopmodel, coopnode): reusable flag bundles for
// swarm scale, replications, and output selection, a repeatable string
// flag, a JSON renderer so every binary's -json mode looks the same, and
// profiling/phase-timing helpers.
//
// Each bundle is a plain struct whose Register method declares its flags
// on a flag.FlagSet, using the struct's current field values as the
// defaults. Binaries set their defaults first, then register:
//
//	opts.Scale = cli.DefaultScale()
//	opts.Scale.Register(flag.CommandLine)
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"time"
)

// StringList is a flag.Value that collects every occurrence of a repeated
// string flag, in order.
type StringList []string

// String renders the collected values for flag's default-value output.
func (l *StringList) String() string { return fmt.Sprint([]string(*l)) }

// Set appends one occurrence of the flag.
func (l *StringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// ScaleFlags bundles the swarm-scale flags shared by the simulation
// binaries: -peers, -pieces, -seed, -horizon.
type ScaleFlags struct {
	Peers   int
	Pieces  int
	Seed    int64
	Horizon float64
}

// DefaultScale returns the paper's laptop-friendly default scale
// (200 peers, 128 pieces of 256 KB, seed 1, 12000 s horizon).
func DefaultScale() ScaleFlags {
	return ScaleFlags{Peers: 200, Pieces: 128, Seed: 1, Horizon: 12000}
}

// Register declares the scale flags on fs with the receiver's current
// values as defaults.
func (s *ScaleFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&s.Peers, "peers", s.Peers, "flash-crowd size")
	fs.IntVar(&s.Pieces, "pieces", s.Pieces, "file pieces (256 KB each)")
	fs.Int64Var(&s.Seed, "seed", s.Seed, "random seed")
	fs.Float64Var(&s.Horizon, "horizon", s.Horizon, "simulated-time cap in seconds")
}

// ReplicationFlags bundles the replication flags: -reps and -workers.
type ReplicationFlags struct {
	Reps    int
	Workers int
}

// Register declares the replication flags on fs with the receiver's
// current values as defaults.
func (r *ReplicationFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&r.Reps, "reps", r.Reps,
		"replication count; >1 runs seeds seed..seed+reps-1 and reports mean ± stderr")
	fs.IntVar(&r.Workers, "workers", r.Workers,
		"parallel worker count for replications (0: REPRO_WORKERS or GOMAXPROCS)")
}

// OutputFlags bundles the output-selection flags: -out (artifact
// directory) and -json (machine-readable stdout).
type OutputFlags struct {
	Dir  string
	JSON bool
}

// Register declares the output flags on fs with the receiver's current
// values as defaults.
func (o *OutputFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Dir, "out", o.Dir, "directory for CSV/JSON artifacts (empty: none)")
	fs.BoolVar(&o.JSON, "json", o.JSON, "emit machine-readable JSON on stdout instead of the text report")
}

// RegisterJSON declares only the -json flag, for binaries without an
// artifact directory.
func (o *OutputFlags) RegisterJSON(fs *flag.FlagSet) {
	fs.BoolVar(&o.JSON, "json", o.JSON, "emit machine-readable JSON on stdout instead of the text report")
}

// TelemetryFlags bundles the live-node observability flags: -metrics-addr
// (the per-node HTTP listener serving /metrics, /debug/swarm,
// /debug/trace, /verify and /debug/vars), -dashboard (a live one-line terminal
// view), -metrics-out (a final JSON telemetry dump: snapshot plus sampler
// time-series), and the causal-tracing pair -trace-sample/-trace-out.
type TelemetryFlags struct {
	MetricsAddr string
	Dashboard   bool
	MetricsOut  string
	TraceSample int
	TraceOut    string
}

// Register declares the telemetry flags on fs with the receiver's current
// values as defaults.
func (t *TelemetryFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.MetricsAddr, "metrics-addr", t.MetricsAddr,
		"serve /metrics, /debug/swarm, and /debug/vars on this TCP address (\":0\" picks a free port; empty disables)")
	fs.BoolVar(&t.Dashboard, "dashboard", t.Dashboard,
		"render a live telemetry line on stderr while the node runs")
	fs.StringVar(&t.MetricsOut, "metrics-out", t.MetricsOut,
		"write a final JSON telemetry dump (metric snapshot + time-series samples) to this file")
	fs.IntVar(&t.TraceSample, "trace-sample", t.TraceSample,
		"record a causal trace for one in N pushed pieces (0 disables tracing)")
	fs.StringVar(&t.TraceOut, "trace-out", t.TraceOut,
		"write collected trace spans as a Chrome trace-event file on exit (implies -trace-sample 1 when that is unset)")
}

// WriteJSON renders v to w as indented JSON — the one renderer behind
// every binary's -json mode, so their output framing matches.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// RunSummary is the machine-readable account of one live transfer — the
// -json payload the node binaries emit so scripted runs (and the repo's
// benchmark harness) can diff throughput and allocation behaviour across
// versions without scraping text output.
type RunSummary struct {
	// Bytes is the verified payload byte count transferred.
	Bytes int `json:"bytes"`
	// Pieces is the number of verified pieces transferred.
	Pieces int `json:"pieces"`
	// WallMS is the transfer's wall-clock duration in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// PiecesPerSec is Pieces divided by the wall-clock duration.
	PiecesPerSec float64 `json:"pieces_per_sec"`
	// BytesPerSec is Bytes divided by the wall-clock duration.
	BytesPerSec float64 `json:"bytes_per_sec"`
	// FramesSent counts wire frames written across all peers.
	FramesSent int64 `json:"frames_sent"`
	// FramesReceived counts wire frames received across all peers.
	FramesReceived int64 `json:"frames_received"`
	// AllocObjects is the process's heap-object allocation count over the
	// run (runtime.MemStats.Mallocs delta) — the wire path's allocation
	// behaviour at one remove, since a run is dominated by frame traffic.
	AllocObjects uint64 `json:"alloc_objects"`
}

// NewRunSummary derives the rate fields from the raw counters. A
// non-positive wall duration yields zero rates rather than infinities, so
// the JSON stays finite for degenerate (instant or failed) runs.
func NewRunSummary(bytes, pieces int, wall time.Duration, framesSent, framesReceived int64, allocObjects uint64) RunSummary {
	s := RunSummary{
		Bytes:          bytes,
		Pieces:         pieces,
		WallMS:         float64(wall.Microseconds()) / 1000,
		FramesSent:     framesSent,
		FramesReceived: framesReceived,
		AllocObjects:   allocObjects,
	}
	if secs := wall.Seconds(); secs > 0 {
		s.PiecesPerSec = float64(pieces) / secs
		s.BytesPerSec = float64(bytes) / secs
	}
	return s
}

// ProfileFlags bundles the Go profiling flags: -cpuprofile, -memprofile,
// and -trace. Call Start after flag parsing and Stop (usually deferred)
// once the measured work is done; both are no-ops for empty paths.
type ProfileFlags struct {
	CPUPath   string
	MemPath   string
	TracePath string

	cpuFile   *os.File
	traceFile *os.File
}

// Register declares the profiling flags on fs.
func (p *ProfileFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPUPath, "cpuprofile", p.CPUPath, "write a CPU profile to this file")
	fs.StringVar(&p.MemPath, "memprofile", p.MemPath, "write a heap profile to this file on exit")
	fs.StringVar(&p.TracePath, "trace", p.TracePath, "write a runtime execution trace to this file")
}

// Start begins CPU profiling and execution tracing for the requested
// outputs. On error, anything already started is stopped.
func (p *ProfileFlags) Start() error {
	if p.CPUPath != "" {
		f, err := os.Create(p.CPUPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		p.cpuFile = f
	}
	if p.TracePath != "" {
		f, err := os.Create(p.TracePath)
		if err != nil {
			p.Stop()
			return err
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			p.Stop()
			return err
		}
		p.traceFile = f
	}
	return nil
}

// Stop ends CPU profiling and tracing, then captures the heap profile if
// one was requested. It returns the first error encountered but always
// attempts every shutdown step.
func (p *ProfileFlags) Stop() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(p.cpuFile.Close())
		p.cpuFile = nil
	}
	if p.traceFile != nil {
		rtrace.Stop()
		keep(p.traceFile.Close())
		p.traceFile = nil
	}
	if p.MemPath != "" {
		f, err := os.Create(p.MemPath)
		if err != nil {
			keep(err)
		} else {
			runtime.GC() // settle the heap so the profile shows live objects
			keep(pprof.WriteHeapProfile(f))
			keep(f.Close())
		}
	}
	return first
}

// Phase is one named wall-clock measurement inside a Phases breakdown.
type Phase struct {
	Name string        `json:"name"`
	Wall time.Duration `json:"wall_ns"`
}

// Phases accumulates named wall-clock measurements — one per experiment
// or pipeline stage — and renders them as the batch report's per-phase
// breakdown. The zero value is ready to use.
type Phases struct {
	entries []Phase
}

// Run times f and records it under name, passing through f's error.
func (p *Phases) Run(name string, f func() error) error {
	started := time.Now()
	err := f()
	p.entries = append(p.entries, Phase{Name: name, Wall: time.Since(started)})
	return err
}

// Entries returns the recorded phases in execution order.
func (p *Phases) Entries() []Phase { return p.entries }

// Len returns the number of recorded phases.
func (p *Phases) Len() int { return len(p.entries) }

// Total returns the summed wall-clock time across all phases.
func (p *Phases) Total() time.Duration {
	var total time.Duration
	for _, e := range p.entries {
		total += e.Wall
	}
	return total
}

// WriteJSON renders the phases as the batch binaries' -json summary:
// {"<key>": [{"name", "wall_ms"}, …], "total_ms"}.
func (p *Phases) WriteJSON(w io.Writer, key string) error {
	type phaseJSON struct {
		Name   string  `json:"name"`
		WallMS float64 `json:"wall_ms"`
	}
	list := make([]phaseJSON, len(p.entries))
	for i, e := range p.entries {
		list[i] = phaseJSON{Name: e.Name, WallMS: ms(e.Wall)}
	}
	return WriteJSON(w, map[string]any{key: list, "total_ms": ms(p.Total())})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Report writes the per-phase wall-clock breakdown as an aligned text
// block with each phase's share of the total.
func (p *Phases) Report(w io.Writer) {
	if len(p.entries) == 0 {
		return
	}
	nameWidth := len("total")
	for _, e := range p.entries {
		if len(e.Name) > nameWidth {
			nameWidth = len(e.Name)
		}
	}
	total := p.Total()
	fmt.Fprintln(w, "phase wall-clock breakdown:")
	for _, e := range p.entries {
		share := 0.0
		if total > 0 {
			share = 100 * float64(e.Wall) / float64(total)
		}
		fmt.Fprintf(w, "  %-*s  %10s  %5.1f%%\n",
			nameWidth, e.Name, e.Wall.Round(time.Millisecond), share)
	}
	fmt.Fprintf(w, "  %-*s  %10s\n", nameWidth, "total", total.Round(time.Millisecond))
}
