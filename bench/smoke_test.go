package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// toyReplay keeps the traced pass of the smoke test to milliseconds.
var toyReplay = replaySize{minDur: time.Millisecond, batch: 16}

// lineMetric is one entry of the contract line's "metrics" object.
type lineMetric struct {
	Value float64
	Unit  string
}

// lastLine parses the contract line printRun ends with.
func lastLine(t *testing.T, res *runResult) (correct bool, metrics map[string]lineMetric) {
	t.Helper()
	var out bytes.Buffer
	if err := printRun(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]lineMetric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if line.Attempted != res.Attempted || line.Failed != res.Failed || line.Attempted < 1 {
		t.Errorf("last line attempted=%d failed=%d, run %d/%d", line.Attempted, line.Failed, res.Attempted, res.Failed)
	}
	return line.Correct, line.Metrics
}

// Every workload at toy size, untraced and traced: no check fails, the
// contract line carries exactly the metrics BENCHMARK.json names for that
// mode, no end-to-end metric is 0, and the layers on the workload's path
// report.
func TestSmokeAllWorkloads(t *testing.T) {
	contract := readContract(t)
	for _, full := range workloads {
		w := full.shrunk(64)
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, 7, 0.01, false, toyReplay)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || len(res.Errors) != 0 {
				t.Fatalf("untraced: %d of %d failed: %v", res.Failed, res.Attempted, res.Errors)
			}
			correct, metrics := lastLine(t, res)
			if !correct || len(metrics) != len(contract.EndToEnd) {
				t.Errorf("untraced: correct=%v with %d metrics, want %d", correct, len(metrics), len(contract.EndToEnd))
			}
			for _, m := range contract.EndToEnd {
				if got, ok := metrics[m.Name]; !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("untraced: %s = %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}

			res, err = runWorkload(w, 7, 0.01, true, toyReplay)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || len(res.Errors) != 0 {
				t.Fatalf("traced: %d of %d failed: %v", res.Failed, res.Attempted, res.Errors)
			}
			correct, metrics = lastLine(t, res)
			if !correct || len(metrics) != len(contract.PerLayer) {
				t.Errorf("traced: correct=%v with %d metrics, want %d", correct, len(metrics), len(contract.PerLayer))
			}
			for _, m := range contract.PerLayer {
				if got, ok := metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("traced: %s = %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			onPath := []string{"sim.events", "sim.transfers", "sim.decisions", "sim.ns_per_event", "eventsim.ns_per_event", "piece.rarest_pick_ns", "incentive.next_receiver_ns.bittorrent"}
			switch {
			case w.isSim():
			case w.tcp:
				onPath = []string{"node.frames_per_piece", "node.useful_upload_share", "protocol.piece_roundtrip_ns", "transport.tcp_frame_ns", "transport.tcp_batch16_frame_ns", "piece.put_ns"}
			default:
				onPath = []string{"node.frames_per_piece", "node.cpu_util", "node.pacing_share", "transport.mem_frame_ns", "piece.put_held_ns", "attest.session_verify_ns", "reputation.credit_ns", "incentive.next_receiver_ns." + mechName(w.mech)}
			}
			for _, name := range onPath {
				if !(metrics[name].Value > 0) {
					t.Errorf("traced: %s = %v, want it measured on %s", name, metrics[name].Value, w.name)
				}
			}
			var traced, clean int
			for _, r := range res.Rounds {
				if r.Traced {
					traced++
				} else {
					clean++
				}
			}
			if traced == 0 || clean == 0 || len(res.Spans) == 0 {
				t.Errorf("traced run had %d traced and %d untraced rounds, %d spans", traced, clean, len(res.Spans))
			}
		})
	}
}
