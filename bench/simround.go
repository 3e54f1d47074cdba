package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/algo"
	"repro/internal/experiment"
	"repro/internal/probe"
	"repro/internal/sim"
)

// setupSamples is how many times a sim round builds its swarms to time
// set-up; one construction is a few milliseconds, too short to time once.
const setupSamples = 15

// simConfigs are the configurations a round of w simulates: Figure 4's six
// (what experiment.Figure4 builds for this scale) or the one large swarm.
func simConfigs(w workload, seed int64) []sim.Config {
	opts := []sim.Option{sim.WithSeed(seed), sim.WithHorizon(w.horizon)}
	if !w.figure {
		return []sim.Config{sim.Default(algo.BitTorrent, w.peers, w.pieces, opts...)}
	}
	var cfgs []sim.Config
	for _, a := range algo.All() {
		cfgs = append(cfgs, sim.Default(a, w.peers, w.pieces, opts...))
	}
	return cfgs
}

// simRound regenerates the figure or runs the one swarm. Set-up (config
// build + NewSwarm) is timed setupSamples times and the median kept; the
// figure repeats that construction inside experiment.Run, so its setup_s
// overlaps its wall_s.
func simRound(w workload, seed int64, idx int, rec *recorder) round {
	r := round{Attempted: 1}
	root := rec.begin("round", 0, 0, idx)
	defer rec.end(root)

	var swarms []*sim.Swarm
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		id := rec.begin("sim.NewSwarm", root, 0, idx)
		t0 := time.Now()
		swarms = swarms[:0]
		for _, cfg := range simConfigs(w, seed) {
			sw, err := sim.NewSwarm(cfg)
			if err != nil {
				rec.end(id)
				r.fail(1, fmt.Sprintf("NewSwarm: %v", err))
				return r
			}
			swarms = append(swarms, sw)
		}
		setups = append(setups, time.Since(t0).Seconds())
		rec.end(id)
	}
	r.SetupS = median(setups)

	if w.figure {
		var out bytes.Buffer
		done := r.section()
		id := rec.begin("experiment.Run", root, 0, idx)
		err := experiment.Run("figure4", experiment.Scale{NumPeers: w.peers, NumPieces: w.pieces, Horizon: w.horizon, Seed: seed}, &out, nil)
		rec.end(id)
		done()
		if err != nil {
			r.fail(1, fmt.Sprintf("experiment.Run: %v", err))
		} else if !bytes.Contains(out.Bytes(), []byte("Figure 4")) {
			r.fail(1, "figure output lacks its title")
		}
		digest := sha256.Sum256(out.Bytes())
		r.Digest = hex.EncodeToString(digest[:])
	} else {
		res, err := timedRun(&r, swarms[0], rec, root, idx)
		if err != nil {
			r.fail(1, fmt.Sprintf("Run: %v", err))
			return r
		}
		if f := res.CompletionFraction(); f < 0.99 {
			r.fail(1, fmt.Sprintf("only %.1f%% of compliant peers completed", 100*f))
		}
		r.Events = res.EventsProcessed
		r.Digest = resultDigest(res)
	}
	r.Completions = []float64{r.WallS}
	if r.Failed == 0 {
		r.Ops = w.simRuns() * w.peers * w.pieces
	}
	return r
}

// timedRun executes one swarm as r's measured section.
func timedRun(r *round, sw *sim.Swarm, rec *recorder, parent, idx int) (*sim.Result, error) {
	done := r.section()
	id := rec.begin("sim.Run", parent, 0, idx)
	res, err := sw.Run()
	rec.end(id)
	done()
	return res, err
}

// resultDigest hashes the outcome a perf-only change must leave identical:
// the event count, the virtual duration and every peer's finish time and
// byte totals.
func resultDigest(res *sim.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %v %v\n", res.EventsProcessed, res.Duration, res.TotalUploaded)
	for _, p := range res.Peers {
		fmt.Fprintf(h, "%d %v %v %v\n", p.ID, p.FinishAt, p.Uploaded, p.Downloaded)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// soloRun is one configuration run alone with a probe.Counter attached: the
// traced pass's source for sim.run_s.*, sim.transfers and sim.decisions.
type soloRun struct {
	wallS     float64
	events    uint64
	transfers uint64
	decisions uint64
	failed    string
}

func runSolo(cfg sim.Config, rec *recorder, parent int) soloRun {
	id := rec.begin("sim.NewSwarm", parent, 0, 0)
	sw, err := sim.NewSwarm(cfg)
	rec.end(id)
	if err != nil {
		return soloRun{failed: err.Error()}
	}
	var counter probe.Counter
	if err := sw.Attach(&counter); err != nil {
		return soloRun{failed: err.Error()}
	}
	var r round
	res, err := timedRun(&r, sw, rec, parent, 0)
	if err != nil {
		return soloRun{failed: err.Error()}
	}
	counts := counter.Counts()
	return soloRun{
		wallS: r.WallS, events: res.EventsProcessed,
		transfers: counts[probe.HookTransferStart], decisions: counts[probe.HookUnchoke],
	}
}
