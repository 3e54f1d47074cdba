package experiment

import (
	"fmt"
	"io"

	"repro/internal/algo"
	"repro/internal/attack"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// runOne executes a single configured run through the runner.
func runOne(cfg sim.Config) (*sim.Result, error) {
	results, err := runner.Run([]sim.Config{cfg})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// runBatch fans a sweep's independent configurations out across the runner
// pool. Results come back in submission order, so callers can zip them with
// the parameter values that produced them. Every member's run manifest is
// persisted as <name>-manifests.json when the sink is live (a nil sink
// keeps nothing).
func runBatch(name string, sink *report.Sink, cfgs []sim.Config) ([]*sim.Result, error) {
	results, manifests, err := runner.RunManifested(cfgs)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	if err := sink.AddJSON(name+"-manifests", manifests); err != nil {
		return nil, err
	}
	return results, nil
}

// AblationAlphaBT sweeps BitTorrent's optimistic-unchoke share: the design
// tradeoff between bootstrap speed (α up) and free-riding exposure (α up).
func AblationAlphaBT(scale Scale, w io.Writer, sink *report.Sink) error {
	tbl := report.NewTable("Ablation: BitTorrent optimistic-unchoke share alpha_BT",
		"alpha_BT", "MeanBoot(s)", "MeanDL(s)", "Susceptibility")
	alphas := []float64{0.05, 0.1, 0.2, 0.4, 0.8}
	cfgs := make([]sim.Config, 0, len(alphas))
	for _, alpha := range alphas {
		cfgs = append(cfgs, simConfig(algo.BitTorrent, scale,
			sim.WithFreeRiders(0.2, attack.Plan{Kind: attack.Passive}),
			sim.WithConfig(func(c *sim.Config) { c.Incentive.AlphaBT = alpha }),
		))
	}
	results, err := runBatch("ablation-alphabt", sink, cfgs)
	if err != nil {
		return err
	}
	for i, alpha := range alphas {
		res := results[i]
		tbl.AddRow(alpha, fmtOr(stats.MeanBootstrapTime(res.Peers), "never"),
			fmtOr(stats.MeanDownloadTime(res.Peers), "never"), res.Susceptibility())
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	return sink.AddTable("ablation-alphabt", tbl)
}

// AblationNBT sweeps BitTorrent's reciprocity slot count n_BT (Table I's
// clustering parameter).
func AblationNBT(scale Scale, w io.Writer, sink *report.Sink) error {
	tbl := report.NewTable("Ablation: BitTorrent reciprocity slots n_BT",
		"n_BT", "MeanDL(s)", "Fairness(d/u)", "F(Eq.3)")
	slots := []int{1, 2, 4, 8, 16}
	cfgs := make([]sim.Config, 0, len(slots))
	for _, nbt := range slots {
		cfgs = append(cfgs, simConfig(algo.BitTorrent, scale,
			sim.WithConfig(func(c *sim.Config) { c.Incentive.NBT = nbt }),
		))
	}
	results, err := runBatch("ablation-nbt", sink, cfgs)
	if err != nil {
		return err
	}
	for i, nbt := range slots {
		res := results[i]
		tbl.AddRow(nbt, fmtOr(stats.MeanDownloadTime(res.Peers), "never"),
			fmtOr(stats.FairnessDU(res.Peers), "n/a"), fmtOr(stats.Fairness(res.Peers), "n/a"))
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	return sink.AddTable("ablation-nbt", tbl)
}

// AblationSeeder sweeps seeder capacity: the bootstrap path every
// mechanism shares (Table II's n_S term).
func AblationSeeder(scale Scale, w io.Writer, sink *report.Sink) error {
	tbl := report.NewTable("Ablation: seeder capacity vs bootstrap and completion",
		"SeederRate(B/s)", "Algorithm", "MeanBoot(s)", "MeanDL(s)", "Completed")
	type point struct {
		rate float64
		a    algo.Algorithm
	}
	var points []point
	var cfgs []sim.Config
	for _, rate := range []float64{1 << 18, 1 << 20, 1 << 22} {
		for _, a := range []algo.Algorithm{algo.Reciprocity, algo.BitTorrent, algo.Altruism} {
			points = append(points, point{rate, a})
			cfgs = append(cfgs, simConfig(a, scale, sim.WithSeeder(rate)))
		}
	}
	results, err := runBatch("ablation-seeder", sink, cfgs)
	if err != nil {
		return err
	}
	for i, pt := range points {
		res := results[i]
		tbl.AddRow(pt.rate, pt.a.String(), fmtOr(stats.MeanBootstrapTime(res.Peers), "never"),
			fmtOr(stats.MeanDownloadTime(res.Peers), "never"),
			fmt.Sprintf("%.0f%%", 100*res.CompletionFraction()))
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	return sink.AddTable("ablation-seeder", tbl)
}

// AblationNeighborView sweeps the compliant neighbor-set size and contrasts
// it with the large-view exploit, quantifying why the exploit works.
func AblationNeighborView(scale Scale, w io.Writer, sink *report.Sink) error {
	tbl := report.NewTable("Ablation: neighbor-set size vs large-view susceptibility (BitTorrent, 20% free-riders)",
		"MaxNeighbors", "LargeView", "Susceptibility", "MeanDL(s)")
	type point struct {
		neighbors int
		largeView bool
	}
	var points []point
	var cfgs []sim.Config
	for _, neighbors := range []int{10, 25, 50} {
		for _, largeView := range []bool{false, true} {
			plan := attack.Plan{Kind: attack.Passive}
			if largeView {
				plan = plan.WithLargeView()
			}
			points = append(points, point{neighbors, largeView})
			cfgs = append(cfgs, simConfig(algo.BitTorrent, scale,
				sim.WithNeighbors(neighbors),
				sim.WithFreeRiders(0.2, plan),
			))
		}
	}
	results, err := runBatch("ablation-largeview", sink, cfgs)
	if err != nil {
		return err
	}
	for i, pt := range points {
		res := results[i]
		tbl.AddRow(pt.neighbors, pt.largeView, res.Susceptibility(), fmtOr(stats.MeanDownloadTime(res.Peers), "never"))
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	return sink.AddTable("ablation-largeview", tbl)
}

// AblationWhitewash sweeps the whitewashing interval against FairTorrent:
// faster identity churn means deficits never accumulate.
func AblationWhitewash(scale Scale, w io.Writer, sink *report.Sink) error {
	tbl := report.NewTable("Ablation: FairTorrent whitewash interval (20% free-riders)",
		"Interval(s)", "Susceptibility", "CompliantMeanDL(s)")
	intervals := []float64{10, 30, 60, 120, 1e9}
	cfgs := make([]sim.Config, 0, len(intervals))
	for _, interval := range intervals {
		cfgs = append(cfgs, simConfig(algo.FairTorrent, scale,
			sim.WithFreeRiders(0.2, attack.Plan{Kind: attack.Whitewash, WhitewashInterval: interval}),
		))
	}
	results, err := runBatch("ablation-whitewash", sink, cfgs)
	if err != nil {
		return err
	}
	for i, interval := range intervals {
		res := results[i]
		label := fmt.Sprintf("%.0f", interval)
		if interval >= 1e9 {
			label = "never"
		}
		tbl.AddRow(label, res.Susceptibility(), fmtOr(stats.MeanDownloadTime(res.Peers), "never"))
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	return sink.AddTable("ablation-whitewash", tbl)
}

// AblationFalsePraise compares passive free-riding with false-praise
// collusion against the reputation algorithm (Table III's collusion row).
func AblationFalsePraise(scale Scale, w io.Writer, sink *report.Sink) error {
	tbl := report.NewTable("Ablation: reputation-system collusion via false praise (20% free-riders)",
		"Attack", "Susceptibility", "CompliantMeanDL(s)")
	plans := []attack.Plan{
		{Kind: attack.Passive},
		{Kind: attack.FalsePraise, PraiseInterval: 5, PraiseBytes: 64 << 20},
	}
	cfgs := make([]sim.Config, 0, len(plans))
	for _, plan := range plans {
		cfgs = append(cfgs, simConfig(algo.Reputation, scale, sim.WithFreeRiders(0.2, plan)))
	}
	results, err := runBatch("ablation-praise", sink, cfgs)
	if err != nil {
		return err
	}
	for i, plan := range plans {
		res := results[i]
		tbl.AddRow(plan.Kind.String(), res.Susceptibility(), fmtOr(stats.MeanDownloadTime(res.Peers), "never"))
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	return sink.AddTable("ablation-praise", tbl)
}

// AblationIndirect isolates T-Chain's indirect reciprocity by comparing its
// bootstrap speed against pure reciprocity (no initiation at all) and
// BitTorrent (altruism-only bootstrap).
func AblationIndirect(scale Scale, w io.Writer, sink *report.Sink) error {
	tbl := report.NewTable("Ablation: bootstrapping with and without indirect reciprocity",
		"Mechanism", "MeanBoot(s)", "Bootstrapped@30s")
	algos := []algo.Algorithm{algo.TChain, algo.BitTorrent, algo.Reciprocity}
	cfgs := make([]sim.Config, 0, len(algos))
	for _, a := range algos {
		cfgs = append(cfgs, simConfig(a, scale))
	}
	results, err := runBatch("ablation-indirect", sink, cfgs)
	if err != nil {
		return err
	}
	for i, a := range algos {
		res := results[i]
		tbl.AddRow(a.String(), fmtOr(stats.MeanBootstrapTime(res.Peers), "never"),
			fmt.Sprintf("%.0f%%", 100*res.BootstrapFraction(30)))
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	return sink.AddTable("ablation-indirect", tbl)
}
