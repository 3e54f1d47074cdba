package experiment

import (
	"fmt"
	"io"
	"math"

	"repro/internal/algo"
	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ValidateBootstrap compares Table II's bootstrap dynamics (iterated via
// analysis.BootstrapCurve) against the simulator's measured bootstrapped
// fraction (Figure 4c), per algorithm. The comparison targets the *speed
// ordering* and rough time scales — the analytical model works in abstract
// timeslots, which we map to seconds using the mean piece-upload rate.
func ValidateBootstrap(scale Scale, w io.Writer, sink *report.Sink) error {
	tbl := report.NewTable(
		"Validation: Table II bootstrap dynamics vs simulator (time to 50% / 90% bootstrapped)",
		"Algorithm", "Model t50(s)", "Sim t50(s)", "Model t90(s)", "Sim t90(s)")

	// Map one analytical timeslot to one simulated second, deriving K and
	// n_S from the simulation configuration.
	refCfg := simConfig(algo.Altruism, scale)
	meanRate := meanCapacity(refCfg)
	base := analysis.BootstrapParams{
		N:     refCfg.NumPeers,
		NS:    max(1, int(refCfg.SeederRate/refCfg.PieceSize)),
		K:     max(1, int(meanRate/refCfg.PieceSize)),
		NBT:   refCfg.Incentive.NBT,
		PiDR:  0.2,  // early-swarm direct-reciprocity chance (cf. Table II text)
		Omega: 0.25, // early-swarm negative-deficit chance
		NFT:   refCfg.NumPeers,
	}
	slots := int(scale.Horizon)
	var curves []*stats.TimeSeries
	cfgs := make([]sim.Config, 0, len(algo.All()))
	for _, a := range algo.All() {
		cfgs = append(cfgs, simConfig(a, scale))
	}
	results, err := runBatch("validate-bootstrap", sink, cfgs)
	if err != nil {
		return err
	}
	for i, a := range algo.All() {
		curve, err := analysis.BootstrapCurve(a, base, slots)
		if err != nil {
			return err
		}
		simSeries := results[i].Series[sim.SeriesBootstrapped]
		tbl.AddRow(a.String(),
			slotOr(analysis.TimeToFraction(curve, 0.5)),
			fmtOr(timeToSimFraction(simSeries, 0.5), "never"),
			slotOr(analysis.TimeToFraction(curve, 0.9)),
			fmtOr(timeToSimFraction(simSeries, 0.9), "never"),
		)
		ts := stats.NewTimeSeries("model-" + a.String())
		for slot, v := range curve {
			if slot%5 == 0 {
				ts.Add(float64(slot), v)
			}
		}
		curves = append(curves, ts)
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "One model timeslot is mapped to one simulated second. The model's")
	fmt.Fprintln(w, "speed ordering (Proposition 4) should match the simulator's; absolute")
	fmt.Fprintln(w, "times differ where the slotted approximation is coarse.")
	fmt.Fprintln(w)
	sink.AddSeries("validate-bootstrap-model", curves...)
	return sink.AddTable("validate-bootstrap", tbl)
}

// meanCapacity returns the expected peer upload rate under the config's
// bandwidth mix.
func meanCapacity(cfg sim.Config) float64 {
	var total, weight float64
	for _, c := range cfg.Bandwidth.Classes {
		total += c.Rate * c.Weight
		weight += c.Weight
	}
	if weight == 0 {
		return 0
	}
	return total / weight
}

// timeToSimFraction finds when the simulated bootstrapped fraction first
// reaches the target, or NaN if it never does.
func timeToSimFraction(ts *stats.TimeSeries, fraction float64) float64 {
	for _, p := range ts.Points {
		if p.V >= fraction {
			return p.T
		}
	}
	return math.NaN()
}

func slotOr(slot int) string {
	if slot < 0 {
		return "never"
	}
	return fmt.Sprintf("%d", slot)
}
