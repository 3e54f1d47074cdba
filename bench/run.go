package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
)

//go:embed golden.json
var goldenJSON []byte

// goldenEntry pins what a sim workload must produce at goldenSeed and full
// size: the figure text or run outcome (Digest) and the events simulated
// (summed over the figure's six runs; checked in the traced pass there,
// because experiment.Run returns only the rendering).
type goldenEntry struct {
	Events uint64 `json:"events"`
	Digest string `json:"digest"`
}

func golden() (map[string]goldenEntry, error) {
	var g map[string]goldenEntry
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench/golden.json: %w", err)
	}
	return g, nil
}

// runResult is one process's measurement of one workload. It is printed
// whole on the "detail" line, which is what a set reads from its children.
type runResult struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	GoMaxProcs int     `json:"gomaxprocs"`

	Rounds    []round            `json:"rounds"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Spans     []span             `json:"spans,omitempty"`

	// Events and Digest are the sim outputs every round agreed on.
	Events uint64 `json:"events,omitempty"`
	Digest string `json:"digest,omitempty"`
}

// failRun marks the whole run failed for a reason no single download owns.
func (res *runResult) failRun(format string, args ...any) {
	res.Failed = res.Attempted
	res.Errors = append(res.Errors, fmt.Sprintf(format, args...))
}

// runWorkload measures w once in this process. Untraced, it yields the
// end-to-end metrics; traced, the isolated replays (of the given size) run
// first, rounds alternate with the span recorder off and on, and the
// per-layer pass (counters, solo runs) follows.
func runWorkload(w workload, seed int64, seconds float64, traced bool, size replaySize) (*runResult, error) {
	pins, err := golden()
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced, GoMaxProcs: runtime.GOMAXPROCS(0)}
	var rec *recorder
	var replays *replayer
	if traced {
		rec = newRecorder(w.name, 0)
		replays = &replayer{w: w, seed: seed, size: size, rec: rec, out: map[string]float64{}}
		replays.replayAll()
	}
	res.Rounds = measure(w, seed, seconds, rec)
	rss := maxRSSMiB()

	for _, r := range res.Rounds {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.Errors = append(res.Errors, r.Errors...)
	}
	res.EndToEnd = endToEndMetrics(untraced(res.Rounds), rss)

	pin, pinned := pins[w.name]
	pinned = pinned && w.full && seed == goldenSeed
	if w.isSim() {
		first := res.Rounds[0]
		res.Events, res.Digest = first.Events, first.Digest
		for i, r := range res.Rounds {
			if r.Events != first.Events || r.Digest != first.Digest {
				res.failRun("round %d simulated %d events (digest %.12s), round 0 %d (%.12s): the same seed must replay exactly",
					i, r.Events, r.Digest, first.Events, first.Digest)
			}
		}
		if pinned && res.Digest != pin.Digest {
			res.failRun("output digest %s differs from bench/golden.json's %s", res.Digest, pin.Digest)
		}
		if pinned && !w.figure && res.Events != pin.Events {
			res.failRun("%d events, bench/golden.json has %d", res.Events, pin.Events)
		}
	}

	if traced {
		lp := &layerPass{w: w, seed: seed, rec: rec, rounds: res.Rounds, endToEnd: res.EndToEnd, out: replays.out}
		res.PerLayer = lp.metrics()
		for _, msg := range append(replays.errs, lp.errs...) {
			res.failRun("%s", msg)
		}
		if events := uint64(res.PerLayer["sim.events"]); pinned && w.figure && events != pin.Events {
			res.failRun("%d events over the six runs, bench/golden.json has %d", events, pin.Events)
		}
		res.Spans = rec.snapshot()
	}
	return res, nil
}

// untraced keeps the rounds that ran with the recorder off: the only ones
// end-to-end metrics may use.
func untraced(rounds []round) []round {
	var clean []round
	for _, r := range rounds {
		if !r.Traced {
			clean = append(clean, r)
		}
	}
	return clean
}

// perRoundSeries gives each end-to-end metric its per-round values (per
// download for the completion median). A failed download is missing from its
// round's Ops, so it lowers that round's throughput.
func perRoundSeries(rounds []round) map[string][]float64 {
	s := map[string][]float64{}
	for _, r := range rounds {
		s["setup_s"] = append(s["setup_s"], r.SetupS)
		s["wall_s"] = append(s["wall_s"], r.WallS)
		s["completion_p50_s"] = append(s["completion_p50_s"], r.Completions...)
		if r.Ops == 0 {
			continue // every download failed; the run is rejected anyway
		}
		ops := float64(r.Ops)
		s["pieces_per_s"] = append(s["pieces_per_s"], ops/r.WallS)
		s["cpu_us_per_op"] = append(s["cpu_us_per_op"], r.CPUS*1e6/ops)
		s["allocs_per_op"] = append(s["allocs_per_op"], float64(r.Mallocs)/ops)
		s["alloc_bytes_per_op"] = append(s["alloc_bytes_per_op"], float64(r.AllocBytes)/ops)
	}
	return s
}

// endToEndMetrics reduces untraced rounds to the contract's end-to-end
// metrics: the median over rounds of each per-round value, the median of
// every download of the run pooled, and the process's peak RSS.
func endToEndMetrics(rounds []round, rssMiB float64) map[string]float64 {
	m := map[string]float64{"max_rss_mib": rssMiB}
	for name, values := range perRoundSeries(rounds) {
		m[name] = median(values)
	}
	return m
}

// contractLine is the JSON object the contract wants as the last line of
// standard output.
func contractLine(res *runResult) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs, values := endToEnd, res.EndToEnd
	if res.Traced {
		specs, values = perLayer, res.PerLayer
	}
	metrics := map[string]value{}
	for _, s := range specs {
		metrics[s.name] = value{values[s.name], s.unit}
	}
	return json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
}

// printRun writes one run's human-readable lines, its detail line and the
// contract line, in that order.
func printRun(out io.Writer, res *runResult) error {
	fmt.Fprintf(out, "# %s seed=%d GOMAXPROCS=%d rounds=%d attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.GoMaxProcs, len(res.Rounds), res.Attempted, res.Failed)
	for _, msg := range res.Errors {
		fmt.Fprintf(out, "# error: %s\n", msg)
	}
	series := perRoundSeries(untraced(res.Rounds))
	for _, s := range endToEnd {
		printMetric(out, res.Workload, s, res.EndToEnd[s.name], series[s.name])
	}
	if res.Traced {
		for _, s := range perLayer {
			printMetric(out, res.Workload, s, res.PerLayer[s.name], nil)
		}
		printSelfTimes(out, res.Spans)
	}
	detail, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "detail %s\n", detail)
	line, err := contractLine(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// printMetric prints "workload metric value unit n=<samples> q1=<…> q3=<…>";
// the sample fields are left out when there is one value only.
func printMetric(out io.Writer, workload string, s metricSpec, value float64, samples []float64) {
	fmt.Fprintf(out, "%-18s %-36s %14.6g %-6s", workload, s.name, value, s.unit)
	if len(samples) > 1 {
		q1, _, q3 := quartiles(samples)
		fmt.Fprintf(out, " n=%d q1=%.6g q3=%.6g", len(samples), q1, q3)
	}
	fmt.Fprintln(out)
}

func printSelfTimes(out io.Writer, spans []span) {
	fmt.Fprintf(out, "# spans: calls, total and self seconds (span minus what its children cover)\n")
	for _, row := range selfTimes(spans) {
		fmt.Fprintf(out, "# %-18s %-32s n=%-4d total=%9.4f self=%9.4f\n", row.Workload, row.Name, row.Count, row.TotalS, row.SelfS)
	}
}
