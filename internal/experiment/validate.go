package experiment

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/algo"
	"repro/internal/analysis"
	"repro/internal/attack"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ValidateAvailability cross-validates the paper's piece-availability model
// (Eqs. 4–7) against the simulator: it pauses an altruism swarm mid-run,
// measures the empirical pairwise exchange feasibility, and compares it
// with the closed forms evaluated on the observed piece-count distribution.
func ValidateAvailability(scale Scale, w io.Writer, sink *report.Sink) error {
	// Calibration run: find the mean download time so the snapshot lands
	// mid-download, when piece counts are spread out and the model is
	// interesting.
	calib, err := runOne(simConfig(algo.Altruism, scale))
	if err != nil {
		return err
	}
	meanDL := stats.MeanDownloadTime(calib.Peers)
	if meanDL != meanDL { // NaN: nobody finished
		return errors.New("experiment: calibration run never completed; raise the horizon")
	}

	tbl := report.NewTable(
		"Validation: Eq. 4-7 exchange model vs simulator across swarm phases",
		"Phase", "t(s)", "Peers", "pi_A model", "pi_A sim", "pi_DR model", "pi_DR sim")
	phases := []struct {
		name     string
		fraction float64
	}{
		{"flash-crowd", 0.04},
		{"mid-swarm", 0.5},
		{"endgame", 0.95},
	}
	cfgs := make([]sim.Config, 0, len(phases))
	for _, phase := range phases {
		cfgs = append(cfgs, simConfig(algo.Altruism, scale,
			sim.WithSnapshotAt(meanDL*phase.fraction)))
	}
	results, err := runBatch("validate-availability", sink, cfgs)
	if err != nil {
		return err
	}
	var snaps []*sim.AvailabilitySnapshot
	for i, phase := range phases {
		cfg, res := cfgs[i], results[i]
		snap := res.Snapshot()
		if snap == nil || snap.Pairs == 0 {
			return fmt.Errorf("experiment: %s snapshot missed (swarm drained at %.0fs)", phase.name, res.Duration)
		}
		snaps = append(snaps, snap)

		// Empirical piece-count distribution p_k at the snapshot instant.
		m := cfg.NumPieces
		dist := make(analysis.PieceCountDist, m+1)
		for _, count := range snap.PieceCounts {
			dist[count] += 1 / float64(len(snap.PieceCounts))
		}
		modelPiA := analysis.MeanExchangeProbability(dist, func(mi, mj int) float64 {
			return analysis.PiAltruism(mi, mj, m)
		})
		modelPiDR := analysis.MeanExchangeProbability(dist, func(mi, mj int) float64 {
			return analysis.PiDirectReciprocity(mi, mj, m)
		})
		tbl.AddRow(phase.name, snap.At, len(snap.PieceCounts),
			modelPiA, snap.PiAltruism, modelPiDR, snap.PiDirect)
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "The model assumes pieces are uniformly spread across peers (rarest-")
	fmt.Fprintln(w, "first's steady state). The flash-crowd row shows the bootstrapping")
	fmt.Fprintln(w, "obstruction: mutual need (pi_DR) is vanishingly rare while most peers")
	fmt.Fprintln(w, "are still empty. The endgame row shows the availability crunch as")
	fmt.Fprintln(w, "peers converge on the last pieces.")
	fmt.Fprintln(w)
	if err := sink.AddJSON("validate-availability-snapshots", snaps); err != nil {
		return err
	}
	return sink.AddTable("validate-availability", tbl)
}

// AblationPropShare compares BitTorrent's equal-split unchoking with
// PropShare's contribution-proportional allocation [5] — the related-work
// variant the paper cites as an attempt to reduce free-riding.
func AblationPropShare(scale Scale, w io.Writer, sink *report.Sink) error {
	tbl := report.NewTable("Ablation: BitTorrent vs PropShare (extension), with and without 20% free-riders",
		"Mechanism", "FreeRiders", "MeanDL(s)", "F(Eq.3)", "Susceptibility")
	type point struct {
		a  algo.Algorithm
		fr float64
	}
	var points []point
	var cfgs []sim.Config
	for _, a := range []algo.Algorithm{algo.BitTorrent, algo.PropShare} {
		for _, fr := range []float64{0, 0.2} {
			var opts []sim.Option
			if fr > 0 {
				opts = append(opts, sim.WithFreeRiders(fr, attack.Plan{Kind: attack.Passive}))
			}
			points = append(points, point{a, fr})
			cfgs = append(cfgs, simConfig(a, scale, opts...))
		}
	}
	results, err := runBatch("ablation-propshare", sink, cfgs)
	if err != nil {
		return err
	}
	for i, pt := range points {
		res := results[i]
		tbl.AddRow(pt.a.String(), fmt.Sprintf("%.0f%%", pt.fr*100),
			fmtOr(stats.MeanDownloadTime(res.Peers), "never"),
			fmtOr(stats.Fairness(res.Peers), "n/a"),
			res.Susceptibility())
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	return sink.AddTable("ablation-propshare", tbl)
}

// AblationArrival contrasts the paper's flash crowd with a steady Poisson
// arrival stream — the regime where bootstrapping pressure is spread out.
func AblationArrival(scale Scale, w io.Writer, sink *report.Sink) error {
	tbl := report.NewTable("Ablation: flash crowd vs Poisson arrivals",
		"Mechanism", "Arrivals", "MeanBoot(s)", "MeanDL(s)", "Completed")
	type point struct {
		a     algo.Algorithm
		label string
	}
	var points []point
	var cfgs []sim.Config
	for _, a := range []algo.Algorithm{algo.TChain, algo.BitTorrent, algo.Reputation, algo.Altruism} {
		for _, pattern := range []sim.ArrivalPattern{sim.ArrivalFlashCrowd, sim.ArrivalPoisson} {
			label := "flash-crowd"
			opt := sim.WithArrival(pattern, 0)
			if pattern == sim.ArrivalPoisson {
				// Spread the same population over ~a quarter of the horizon.
				opt = sim.WithArrival(pattern, scale.Horizon/4/float64(scale.NumPeers))
				label = "poisson"
			}
			points = append(points, point{a, label})
			cfgs = append(cfgs, simConfig(a, scale, opt))
		}
	}
	results, err := runBatch("ablation-arrival", sink, cfgs)
	if err != nil {
		return err
	}
	for i, pt := range points {
		res := results[i]
		tbl.AddRow(pt.a.String(), pt.label,
			fmtOr(stats.MeanBootstrapTime(res.Peers), "never"),
			fmtOr(stats.MeanDownloadTime(res.Peers), "never"),
			fmt.Sprintf("%.0f%%", 100*res.CompletionFraction()))
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	return sink.AddTable("ablation-arrival", tbl)
}

// AblationChurn injects mid-download crashes and a seeder exit, measuring
// how each mechanism's surviving population fares — robustness beyond the
// paper's leave-on-completion churn.
func AblationChurn(scale Scale, w io.Writer, sink *report.Sink) error {
	tbl := report.NewTable("Ablation: failure injection (15% peer crashes; seeder exits at horizon/8)",
		"Mechanism", "Failures", "SurvivorCompleted", "MeanDL(s)")
	type point struct {
		a     algo.Algorithm
		label string
	}
	var points []point
	var cfgs []sim.Config
	for _, a := range []algo.Algorithm{algo.TChain, algo.BitTorrent, algo.Altruism} {
		for _, injected := range []bool{false, true} {
			var opts []sim.Option
			label := "none"
			if injected {
				opts = append(opts,
					sim.WithAbortRate(0.15),
					sim.WithSeederExit(scale.Horizon/8))
				label = "crashes+seeder-exit"
			}
			points = append(points, point{a, label})
			cfgs = append(cfgs, simConfig(a, scale, opts...))
		}
	}
	results, err := runBatch("ablation-churn", sink, cfgs)
	if err != nil {
		return err
	}
	for i, pt := range points {
		res := results[i]
		tbl.AddRow(pt.a.String(), pt.label,
			fmt.Sprintf("%.0f%%", 100*res.CompletionFraction()),
			fmtOr(stats.MeanDownloadTime(res.Peers), "never"))
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	return sink.AddTable("ablation-churn", tbl)
}
