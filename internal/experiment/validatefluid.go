package experiment

import (
	"fmt"
	"io"

	"repro/internal/algo"
	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/sim"
)

// ValidateFluid compares the classic fluid model's completion curve
// (analysis.FluidParams, the Qiu–Srikant substrate under the paper's
// efficiency analysis) against the simulator's measured completion
// trajectory for the altruism mechanism — the regime the fluid model's
// uniform-exchange assumption describes.
func ValidateFluid(scale Scale, w io.Writer, sink *report.Sink) error {
	cfg := simConfig(algo.Altruism, scale)
	res, err := runOne(cfg)
	if err != nil {
		return err
	}
	fileBytes := cfg.FileSize()
	fluid := analysis.FluidParams{
		N:        cfg.NumPeers,
		Mu:       meanCapacity(cfg) / fileBytes,
		Eta:      1,
		SeedRate: cfg.SeederRate / fileBytes,
	}

	tbl := report.NewTable(
		fmt.Sprintf("Validation: fluid model vs simulator, altruism (N=%d, mu=%.3g files/s, s=%.3g files/s)",
			fluid.N, fluid.Mu, fluid.SeedRate),
		"Completed", "Fluid t(s)", "Sim t(s)")
	simCompleted := res.Series[sim.SeriesCompleted]
	for _, frac := range []float64{0.25, 0.5, 0.75, 0.9, 0.99} {
		fluidT, err := fluid.FluidTimeToFraction(frac)
		if err != nil {
			return err
		}
		tbl.AddRow(fmt.Sprintf("%.0f%%", frac*100),
			fluidT, fmtOr(timeToSimFraction(simCompleted, frac), "never"))
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "Reading the comparison: the fluid ODE retires leechers *continuously*")
	fmt.Fprintln(w, "at the aggregate service rate, while a synchronized flash crowd with")
	fmt.Fprintln(w, "equalized download rates finishes in a sharp wave around the mean — so")
	fmt.Fprintln(w, "the two agree on the swarm's characteristic timescale (compare the")
	fmt.Fprintln(w, "50-75% rows) but disagree on the tails by construction. The paper's")
	fmt.Fprintln(w, "per-user equilibrium analysis (Table I) is the sharper tool; this is")
	fmt.Fprintln(w, "the baseline it improves on.")
	fmt.Fprintln(w)
	return sink.AddTable("validate-fluid", tbl)
}
