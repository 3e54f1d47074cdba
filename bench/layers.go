package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/algo"
	"repro/internal/runner"
	"repro/internal/sim"
)

// layerPass turns a traced run into the per-layer metrics: counters the
// rounds read through public APIs, runs repeated alone or with a probe
// attached, and the isolated replays (already run: out holds their results),
// combined into per-piece and per-event budgets.
type layerPass struct {
	w        workload
	seed     int64
	rec      *recorder
	rounds   []round // every round, traced or not: counters do not depend on the recorder
	endToEnd map[string]float64
	out      map[string]float64
	errs     []string
}

func (lp *layerPass) metrics() map[string]float64 {
	root := lp.rec.begin("per-layer pass", 0, 0, -1)
	out := lp.out

	var tracedWall, cleanWall []float64
	for _, r := range lp.rounds {
		if r.Traced {
			tracedWall = append(tracedWall, r.WallS)
		} else {
			cleanWall = append(cleanWall, r.WallS)
		}
	}
	out["bench.trace_overhead_pct"] = 100 * (median(tracedWall)/median(cleanWall) - 1)

	if lp.w.isSim() {
		lp.simLayers(out, root, median(cleanWall))
	} else {
		lp.swarmLayers(out)
	}
	lp.rec.end(root)
	return out
}

// swarmLayers: counter ratios over every round, then the residual — the CPU
// per useful piece that the replayed layers do not explain (handler
// dispatch, the node lock, outbox, scheduler ticks, goroutine switches).
func (lp *layerPass) swarmLayers(out map[string]float64) {
	var ops, wall, cpu, frames, uploaded, credited float64
	var starts, stops, spreads, completions []float64
	for _, r := range lp.rounds {
		ops += float64(r.Ops)
		wall += r.WallS
		cpu += r.CPUS
		frames += float64(r.Frames)
		uploaded += r.Uploaded
		credited += r.Credited
		starts = append(starts, r.StartS)
		stops = append(stops, r.StopS)
		s := sorted(r.Completions)
		spreads = append(spreads, (s[len(s)-1]-s[0])/r.WallS)
		if !r.Traced {
			completions = append(completions, r.Completions...)
		}
	}
	if ops == 0 || credited == 0 {
		return // every download failed; the run is already rejected
	}
	procs := float64(runtime.GOMAXPROCS(0))
	framesPerPiece := frames / ops
	uploadsPerPiece := uploaded / credited // > 1: duplicates pay the whole piece path
	out["node.frames_per_piece"] = framesPerPiece
	out["node.useful_upload_share"] = credited / uploaded
	out["node.cpu_util"] = cpu / (wall * procs)
	out["node.pacing_share"] = ops / wall / (float64(lp.w.nodes) * pacingBurst / decisionInterval.Seconds())
	out["node.start_s"] = median(starts)
	out["node.stop_drain_s"] = median(stops)
	out["node.completion_spread"] = median(spreads)
	// The highest percentile with ten samples beyond it; a tail, so too
	// unsteady between runs (10-20 %) to carry a bound as an end-to-end metric.
	out["node.completion_p90_s"] = percentile(completions, 0.9)

	// Every frame crosses the transport. Mem hands a message over by
	// reference; a TCP frame is also encoded and decoded, which the
	// transport replay (Piece frames, batched as the node's writers batch)
	// includes, so the other frames are charged a Have's codec cost instead
	// of a Piece's.
	wireNs := framesPerPiece * out["transport.mem_frame_ns"]
	if lp.w.tcp {
		wireNs = framesPerPiece*out["transport.tcp_batch16_frame_ns"] -
			(framesPerPiece-uploadsPerPiece)*(out["protocol.piece_roundtrip_ns"]-out["protocol.have_roundtrip_ns"])
	}
	// Every push pays GetRef, a strategy decision and, on T-Chain, a seal and
	// an open; the first delivery of a piece pays a full Put, a duplicate only
	// the verify of a held one; every useful piece is attested, verified and
	// credited once.
	explainedNs := wireNs +
		uploadsPerPiece*out["piece.getref_ns"] + out["piece.put_ns"] + (uploadsPerPiece-1)*out["piece.put_held_ns"] +
		out["attest.session_sign_ns"] + out["attest.session_verify_ns"] + out["reputation.credit_ns"] +
		uploadsPerPiece*(out["incentive.next_receiver_ns."+mechName(lp.w.mech)]+out["tchain.seal_ns"]+out["tchain.open_ns"])
	out["node.residual_cpu_us_per_piece"] = lp.endToEnd["cpu_us_per_op"] - explainedNs/1e3
}

// simLayers: each configuration alone with a probe.Counter attached gives
// the exact counts and the solo wall times; the figure is also run through
// runner.Run to separate rendering and load balance from simulation.
func (lp *layerPass) simLayers(out map[string]float64, root int, cleanWall float64) {
	cfgs := simConfigs(lp.w, lp.seed)
	var events, transfers, decisions, soloWall, decisionNs float64
	for _, cfg := range cfgs {
		solo := runSolo(cfg, lp.rec, root)
		if solo.failed != "" {
			lp.errs = append(lp.errs, fmt.Sprintf("solo %v: %s", cfg.Algorithm, solo.failed))
			return
		}
		mech := mechName(cfg.Algorithm)
		out["sim.run_s."+mech] = solo.wallS
		events += float64(solo.events)
		transfers += float64(solo.transfers)
		decisions += float64(solo.decisions)
		soloWall += solo.wallS
		decisionNs += float64(solo.decisions) * out["incentive.next_receiver_ns."+mech]
	}
	out["sim.events"] = events
	out["sim.transfers"] = transfers
	out["sim.decisions"] = decisions

	if lp.w.figure {
		out["sim.ns_per_event"] = soloWall * 1e9 / events
		lp.runnerLayers(out, root, cfgs, events, soloWall, cleanWall)
	} else {
		// The solo run carried the probe; the untraced rounds did not.
		out["probe.dispatch_overhead_pct"] = 100 * (soloWall/cleanWall - 1)
		out["sim.run_s."+mechName(algo.BitTorrent)] = cleanWall
		out["sim.ns_per_event"] = cleanWall * 1e9 / events
		if got := float64(lp.rounds[0].Events); got != events {
			lp.errs = append(lp.errs, fmt.Sprintf("run with a probe simulated %.0f events, without %.0f", events, got))
		}
	}
	out["sim.residual_ns_per_event"] = out["sim.ns_per_event"] - out["eventsim.ns_per_event"] -
		(decisionNs+transfers*out["piece.rarest_pick_ns"])/events
}

// runnerLayers: the figure's six configurations through runner.Run, and six
// trivial ones for the pool's fixed cost.
func (lp *layerPass) runnerLayers(out map[string]float64, root int, cfgs []sim.Config, events, soloWall, figureWall float64) {
	timeRunner := func(name string, cfgs []sim.Config) ([]*sim.Result, float64) {
		id := lp.rec.begin(name, root, 0, 0)
		t0 := time.Now()
		results, err := runner.Run(cfgs)
		wall := time.Since(t0).Seconds()
		lp.rec.end(id)
		if err != nil {
			lp.errs = append(lp.errs, fmt.Sprintf("%s: %v", name, err))
			return nil, wall
		}
		return results, wall
	}
	results, wall := timeRunner("runner.Run", cfgs)
	if results == nil {
		return
	}
	var viaRunner float64
	for i, res := range results {
		viaRunner += float64(res.EventsProcessed)
		// Pure reciprocity never bootstraps (the paper's point); the other
		// five must finish at the recorded size.
		if f := res.CompletionFraction(); lp.w.full && cfgs[i].Algorithm != algo.Reciprocity && f < 0.99 {
			lp.errs = append(lp.errs, fmt.Sprintf("%v: only %.1f%% of compliant peers completed", cfgs[i].Algorithm, 100*f))
		}
	}
	if viaRunner != events {
		lp.errs = append(lp.errs, fmt.Sprintf("runner.Run simulated %.0f events, the solo runs %.0f", viaRunner, events))
	}
	out["runner.parallel_efficiency"] = soloWall / (float64(runtime.GOMAXPROCS(0)) * wall)
	out["experiment.render_s"] = figureWall - wall

	var trivial []sim.Config
	for _, a := range algo.All() {
		trivial = append(trivial, sim.Default(a, 2, 1, sim.WithSeed(lp.seed), sim.WithHorizon(60)))
	}
	if results, wall := timeRunner("runner.Run trivial", trivial); results != nil {
		out["runner.overhead_s"] = wall
	}
}

// layerNotes is printed under the per-layer table: how to read it.
const layerNotes = `# A per-layer metric reads 0 on a workload whose path does not include the layer.
# Nothing else contends in the sim workloads, so a faster layer saves at most its replayed share of cpu_us_per_op.
# In the swarm workloads the node lock and the shared Ledger are shared resources, so reputation.credit_contended_ns
# and node.residual_cpu_us_per_piece can move pieces_per_s by more than their CPU share.
# Completion waits on the slowest of 7-15 parallel leechers, so node.completion_p90_s degrades before pieces_per_s does.
# Below ~0.85 node.cpu_util or above ~0.8 node.pacing_share, pieces_per_s measures the ticker: read cpu_us_per_op.
`
