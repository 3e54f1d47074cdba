package experiment

import (
	"fmt"
	"io"
	"math"

	"repro/internal/algo"
	"repro/internal/attack"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

// simConfig builds the Section V configuration for one algorithm at the
// given scale, with any extra options applied on top.
func simConfig(a algo.Algorithm, scale Scale, opts ...sim.Option) sim.Config {
	base := []sim.Option{sim.WithHorizon(scale.Horizon), sim.WithSeed(scale.Seed)}
	return sim.Default(a, scale.NumPeers, scale.NumPieces, append(base, opts...)...)
}

// runAll executes one run per algorithm, applying the per-algorithm options
// to each config first. The six runs are independent, so they fan out across
// the runner pool; results come back in algo.All() order, keeping the
// rendered tables byte-identical to the old sequential loop. With a live
// sink, each batch member's run manifest is persisted as <name>-manifests.
func runAll(scale Scale, name string, sink *report.Sink, perAlgo func(algo.Algorithm) []sim.Option) (map[algo.Algorithm]*sim.Result, error) {
	algos := algo.All()
	cfgs := make([]sim.Config, len(algos))
	for i, a := range algos {
		var opts []sim.Option
		if perAlgo != nil {
			opts = perAlgo(a)
		}
		cfgs[i] = simConfig(a, scale, opts...)
	}
	results, err := runBatch(name, sink, cfgs)
	if err != nil {
		return nil, err
	}
	out := make(map[algo.Algorithm]*sim.Result, len(algos))
	for i, a := range algos {
		out[a] = results[i]
	}
	return out, nil
}

// fmtOr formats a float or returns alt for NaN/Inf (e.g., reciprocity's
// undefined download time).
func fmtOr(v float64, alt string) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return alt
	}
	return fmt.Sprintf("%.4g", v)
}

// summarizeRuns renders the standard per-algorithm summary table and
// persists each run's time series.
func summarizeRuns(title, prefix string, results map[algo.Algorithm]*sim.Result, w io.Writer, sink *report.Sink) error {
	tbl := report.NewTable(title,
		"Algorithm", "Completed", "MeanDL(s)", "MedianDL(s)", "Fairness(d/u)", "F(Eq.3)", "MeanBoot(s)", "Susceptibility")
	for _, a := range algo.All() {
		r := results[a]
		summary := stats.DownloadTimeSummary(r.Peers)
		tbl.AddRow(a.String(),
			fmt.Sprintf("%.0f%%", 100*r.CompletionFraction()),
			fmtOr(stats.MeanDownloadTime(r.Peers), "never"),
			fmtOr(summary.Median, "never"),
			fmtOr(stats.FairnessDU(r.Peers), "n/a"),
			fmtOr(stats.Fairness(r.Peers), "n/a"),
			fmtOr(stats.MeanBootstrapTime(r.Peers), "never"),
			fmt.Sprintf("%.4f", r.Susceptibility()),
		)
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := sink.AddTable(prefix+"-summary", tbl); err != nil {
		return err
	}
	// Persist per-metric series across algorithms on a shared grid, and
	// render the two headline curves as terminal charts.
	var horizon float64
	for _, a := range algo.All() {
		if d := results[a].Duration; d > horizon {
			horizon = d
		}
	}
	interval := horizon / 200
	if interval <= 0 {
		interval = 1
	}
	for _, name := range []string{sim.SeriesFairness, sim.SeriesBootstrapped, sim.SeriesCompleted, sim.SeriesSusceptibility} {
		merged := make([]*stats.TimeSeries, 0, 6)
		for _, a := range algo.All() {
			ts := results[a].Series[name].Resample(interval, horizon)
			ts.Name = a.String()
			merged = append(merged, ts)
		}
		sink.AddSeries(fmt.Sprintf("%s-%s", prefix, name), merged...)
		switch name {
		case sim.SeriesBootstrapped:
			// Zoom the bootstrap chart onto the interesting early window.
			zoom := make([]*stats.TimeSeries, 0, len(merged))
			for _, a := range algo.All() {
				ts := results[a].Series[name].Resample(horizon/400, horizon/8)
				ts.Name = a.String()
				zoom = append(zoom, ts)
			}
			fmt.Fprintln(w, report.Chart("Bootstrapped fraction vs time (early window)", 64, 12, zoom...))
		case sim.SeriesCompleted:
			fmt.Fprintln(w, report.Chart("Completed fraction vs time", 64, 12, merged...))
		}
	}
	return nil
}

// Figure4 reproduces the compliant-swarm comparison: (a) download-time
// efficiency, (b) fairness over time, (c) bootstrapping speed.
func Figure4(scale Scale, w io.Writer, sink *report.Sink) error {
	results, err := runAll(scale, "figure4", sink, nil)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Figure 4: all users compliant (N=%d, M=%d pieces)", scale.NumPeers, scale.NumPieces)
	return summarizeRuns(title, "figure4", results, w, sink)
}

// Figure5 reproduces the 20% free-rider comparison with each algorithm's
// most effective attack (collusion for T-Chain, whitewashing for
// FairTorrent, passive otherwise).
func Figure5(scale Scale, w io.Writer, sink *report.Sink) error {
	results, err := runAll(scale, "figure5", sink, func(a algo.Algorithm) []sim.Option {
		return []sim.Option{sim.WithFreeRiders(0.2, attack.MostEffective(a))}
	})
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Figure 5: 20%% targeted free-riders (N=%d, M=%d pieces)", scale.NumPeers, scale.NumPieces)
	return summarizeRuns(title, "figure5", results, w, sink)
}

// Figure6 adds the large-view exploit on top of Figure 5's attacks.
func Figure6(scale Scale, w io.Writer, sink *report.Sink) error {
	results, err := runAll(scale, "figure6", sink, func(a algo.Algorithm) []sim.Option {
		return []sim.Option{sim.WithFreeRiders(0.2, attack.MostEffective(a).WithLargeView())}
	})
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Figure 6: 20%% free-riders with large-view exploit (N=%d, M=%d pieces)", scale.NumPeers, scale.NumPieces)
	return summarizeRuns(title, "figure6", results, w, sink)
}
