package main

import (
	"fmt"
	"strings"

	"repro/internal/algo"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const defaultSeconds = 10

// goldenSeed is the seed bench/golden.json was recorded at.
const goldenSeed = 42

// metricSpec names one metric of the contract in BENCHMARK.json. The Go
// tables below are what the program emits; spec_test.go holds them equal to
// the JSON file, so neither can drift.
type metricSpec struct {
	name   string
	unit   string
	higher bool    // true when a larger value is better
	bound  float64 // regression bound as a share of the parent's median; end-to-end only
}

// endToEnd is measured with the span recorder off and reported for every
// workload. An op is one piece delivered to one leecher: hash-verified first
// deliveries on a live swarm, peers × pieces × runs (the stated input size)
// on a simulated one.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "wall_s", unit: "s", bound: 0.25},
	{name: "pieces_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", bound: 0.25},
	{name: "allocs_per_op", unit: "1", bound: 0.08},
	{name: "alloc_bytes_per_op", unit: "B", bound: 0.08},
	{name: "max_rss_mib", unit: "MiB", bound: 0.25},
	{name: "completion_p50_s", unit: "s", bound: 0.25},
}

// perLayer comes from the traced pass: counters read through each module's
// public API after a round, and isolated replays of each layer's public
// functions at the workload's own shape. A layer that is not on a workload's
// path reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	specs := []metricSpec{
		{name: "protocol.piece_roundtrip_ns", unit: "ns"},
		{name: "protocol.have_roundtrip_ns", unit: "ns"},
		{name: "protocol.roundtrip_allocs", unit: "1"},
		{name: "transport.mem_frame_ns", unit: "ns"},
		{name: "transport.tcp_frame_ns", unit: "ns"},
		{name: "transport.tcp_batch16_frame_ns", unit: "ns"},
		{name: "piece.put_ns", unit: "ns"},
		{name: "piece.put_mib_s", unit: "MiB/s", higher: true},
		{name: "piece.put_held_ns", unit: "ns"},
		{name: "piece.getref_ns", unit: "ns"},
		{name: "piece.rarest_pick_ns", unit: "ns"},
		{name: "attest.session_sign_ns", unit: "ns"},
		{name: "attest.session_verify_ns", unit: "ns"},
		{name: "attest.ed25519_sign_ns", unit: "ns"},
		{name: "attest.ed25519_verify_ns", unit: "ns"},
		{name: "reputation.credit_ns", unit: "ns"},
		{name: "reputation.credit_contended_ns", unit: "ns"},
		{name: "tchain.seal_ns", unit: "ns"},
		{name: "tchain.open_ns", unit: "ns"},
	}
	for _, a := range algo.All() {
		specs = append(specs, metricSpec{name: "incentive.next_receiver_ns." + mechName(a), unit: "ns"})
	}
	specs = append(specs,
		metricSpec{name: "eventsim.ns_per_event", unit: "ns"},
		metricSpec{name: "eventsim.allocs_per_kevent", unit: "1"},
		metricSpec{name: "sim.events", unit: "count"},
		metricSpec{name: "sim.transfers", unit: "count"},
		metricSpec{name: "sim.decisions", unit: "count"},
		metricSpec{name: "sim.ns_per_event", unit: "ns"},
		metricSpec{name: "sim.residual_ns_per_event", unit: "ns"},
	)
	for _, a := range algo.All() {
		specs = append(specs, metricSpec{name: "sim.run_s." + mechName(a), unit: "s"})
	}
	return append(specs,
		metricSpec{name: "runner.parallel_efficiency", unit: "ratio", higher: true},
		metricSpec{name: "runner.overhead_s", unit: "s"},
		metricSpec{name: "experiment.render_s", unit: "s"},
		metricSpec{name: "probe.dispatch_overhead_pct", unit: "%"},
		metricSpec{name: "node.frames_per_piece", unit: "1"},
		metricSpec{name: "node.useful_upload_share", unit: "ratio", higher: true},
		metricSpec{name: "node.cpu_util", unit: "ratio", higher: true},
		metricSpec{name: "node.pacing_share", unit: "ratio"},
		metricSpec{name: "node.residual_cpu_us_per_piece", unit: "us"},
		metricSpec{name: "node.start_s", unit: "s"},
		metricSpec{name: "node.stop_drain_s", unit: "s"},
		metricSpec{name: "node.completion_spread", unit: "ratio"},
		metricSpec{name: "node.completion_p90_s", unit: "s"},
		metricSpec{name: "bench.trace_overhead_pct", unit: "%"},
	)
}

// mechName is a mechanism's name as metric names spell it ("T-Chain" →
// "tchain").
func mechName(a algo.Algorithm) string {
	return strings.ToLower(strings.ReplaceAll(a.String(), "-", ""))
}

// workload is one set of inputs. Sim workloads have nodes == 0 and use
// peers/horizon; swarm workloads use nodes/pieceSize/mech/tcp. Both use
// pieces.
type workload struct {
	name string
	why  string
	reps int // fresh processes per set in -set / -aa mode

	figure  bool // regenerate Figure 4 through experiment.Run rather than one sim run
	peers   int
	horizon float64

	nodes     int
	pieceSize int
	mech      algo.Algorithm
	tcp       bool

	pieces int
	full   bool // the recorded size; shrunk copies skip the golden comparison
}

func (w workload) isSim() bool { return w.nodes == 0 }

// leechers is how many downloads one round (one sim run) attempts.
func (w workload) leechers() int {
	if w.isSim() {
		return w.peers
	}
	return w.nodes - 1
}

// simRuns is how many simulations one round of a sim workload executes.
func (w workload) simRuns() int {
	if w.figure {
		return len(algo.All())
	}
	return 1
}

// shrunk returns w at 1/div of its population and piece count, used for the
// warm-up round (div 8) and the smoke test.
func (w workload) shrunk(div int) workload {
	w.full = false
	w.pieces = max(w.pieces/div, 16)
	if w.isSim() {
		w.peers = max(w.peers/div, 40)
	}
	return w
}

// workloads is the benchmark's fixed set; sizes are the ones bench/README.md
// records measurements for.
var workloads = []workload{
	{
		name: "sim_figure4_paper", reps: 3, full: true,
		why:    "Figure 4 at the paper's scale through experiment.Run: six mechanisms x 1000 peers x 512 pieces; strategy decisions, event heap and runner load balance all block the result",
		figure: true, peers: 1000, pieces: 512, horizon: 12000,
	},
	{
		name: "sim_large_swarm", reps: 5, full: true,
		why:   "one serial BitTorrent run at 5000 peers x 256 pieces: interest/rarity indexes and the event heap undiluted by rendering or parallelism, so a runner change must not move it",
		peers: 5000, pieces: 256, horizon: 4000,
	},
	{
		name: "swarm_mem_small", reps: 5, full: true,
		why:   "16 nodes, mem transport, 4096 x 1 KB pieces: smallest message, ~17 frames per useful piece, so outbox, handler lock, session MAC and ledger credit dominate; Mem passes messages uncoded",
		nodes: 16, pieces: 4096, pieceSize: 1 << 10, mech: algo.Altruism,
	},
	{
		name: "swarm_mem_bulk", reps: 5, full: true,
		why:   "8 nodes, mem transport, 1024 x 64 KB pieces: byte-bound on Store.Put SHA-256 verify and copy; per-frame work is diluted 64x, so a per-frame optimisation predicts no change here",
		nodes: 8, pieces: 1024, pieceSize: 64 << 10, mech: algo.Altruism,
	},
	{
		name: "swarm_tcp", reps: 5, full: true,
		why:   "8 nodes over host-loopback TCP, 4096 x 4 KB pieces: the only workload that runs the codec; kernel sockets, bufio flush batching and per-peer writers do most of the work; loopback, not a real link",
		nodes: 8, pieces: 4096, pieceSize: 4 << 10, mech: algo.Altruism, tcp: true,
	},
	{
		name: "swarm_tchain", reps: 5, full: true,
		why:   "8 nodes, mem transport, T-Chain, 4096 x 4 KB pieces: sealed pieces, AES-CTR seal/open, escrow and key release instead of plain pieces; a plain-path gain that taxes the sealed path shows here",
		nodes: 8, pieces: 4096, pieceSize: 4 << 10, mech: algo.TChain,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
