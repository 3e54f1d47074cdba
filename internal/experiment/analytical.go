package experiment

import (
	"fmt"
	"io"
	"math"

	"repro/internal/algo"
	"repro/internal/analysis"
	"repro/internal/report"
)

// analysisScenario builds the capacity mix used by the analytical tables:
// four equal tiers (8:4:2:1), 40 users, a seeder worth one mid-tier user,
// with the paper's α_BT = 0.2, α_R = 0.1, n_BT = 4.
func analysisScenario() (*analysis.Scenario, error) {
	caps := make([]float64, 0, 40)
	for _, rate := range []float64{8, 4, 2, 1} {
		for i := 0; i < 10; i++ {
			caps = append(caps, rate)
		}
	}
	return analysis.NewScenario(caps, 2, 0.2, 0.1, 4)
}

// Table1 prints the equilibrium download rates of Table I for the analysis
// capacity mix, one row per algorithm with the per-tier utilization.
func Table1(_ Scale, w io.Writer, sink *report.Sink) error {
	s, err := analysisScenario()
	if err != nil {
		return err
	}
	tiers := []float64{8, 4, 2, 1}
	tbl := report.NewTable("Table I: equilibrium download utilization d_i - u_S/N by capacity tier",
		"Algorithm", "U=8", "U=4", "U=2", "U=1")
	share := s.SeederRate / float64(s.N())
	for _, a := range algo.All() {
		d := s.DownloadRates(a)
		row := make([]any, 0, 5)
		row = append(row, a.String())
		for _, tier := range tiers {
			// Mean utilization over users in this tier.
			var sum float64
			count := 0
			for i, u := range s.Capacities {
				if u == tier {
					sum += d[i] - share
					count++
				}
			}
			row = append(row, sum/float64(count))
		}
		tbl.AddRow(row...)
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	return sink.AddTable("table1", tbl)
}

// Figure2 prints the idealized fairness/efficiency ranking of Corollary 1.
func Figure2(_ Scale, w io.Writer, sink *report.Sink) error {
	s, err := analysisScenario()
	if err != nil {
		return err
	}
	tbl := report.NewTable("Figure 2: idealized equilibrium fairness and efficiency",
		"Algorithm", "E (Eq.2)", "F (Eq.3)", "E/E_opt")
	opt := s.OptimalEfficiency()
	for _, a := range algo.All() {
		e, f := s.Evaluate(a)
		fStr := fmt.Sprintf("%.4g", f)
		if math.IsNaN(f) {
			fStr = "undefined"
		}
		eStr := fmt.Sprintf("%.4g", e)
		ratio := fmt.Sprintf("%.3f", e/opt)
		if math.IsInf(e, 1) {
			eStr, ratio = "inf", "inf"
		}
		tbl.AddRow(a.String(), eStr, fStr, ratio)
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "Lemma 1 optimum: E* = %.4g (d* = %.4g)\n\n", opt, s.OptimalDownloadRate())
	return sink.AddTable("figure2", tbl)
}

// Figure3 prints the mean piece-exchange probabilities under imperfect
// piece availability (Proposition 2 / Corollary 2) for a sweep of swarm
// maturities, reproducing the efficiency re-ranking of Figure 3.
func Figure3(_ Scale, w io.Writer, sink *report.Sink) error {
	const (
		m = 128 // pieces
		n = 500 // users
	)
	tbl := report.NewTable("Figure 3: mean exchange probability by swarm maturity (M=128, N=500)",
		"Distribution", "pi_Altruism", "pi_TChain", "pi_BT", "pi_DR")
	dists := []struct {
		name string
		dist analysis.PieceCountDist
	}{
		{"flash-crowd (most empty)", flashCrowdDist(m)},
		{"uniform 0..M", analysis.UniformPieceCounts(m)},
		{"mid-swarm (all ~M/2)", analysis.PointPieceCounts(m, m/2)},
		{"endgame (all ~0.9M)", analysis.PointPieceCounts(m, m*9/10)},
	}
	for _, d := range dists {
		piA := analysis.MeanExchangeProbability(d.dist, func(mi, mj int) float64 {
			return analysis.PiAltruism(mi, mj, m)
		})
		piTC := analysis.MeanExchangeProbability(d.dist, func(mi, mj int) float64 {
			return analysis.PiTChain(mi, mj, m, n, d.dist)
		})
		piBT := analysis.MeanExchangeProbability(d.dist, func(mi, mj int) float64 {
			return analysis.PiBitTorrent(mi, mj, m, 0.2)
		})
		piDR := analysis.MeanExchangeProbability(d.dist, func(mi, mj int) float64 {
			return analysis.PiDirectReciprocity(mi, mj, m)
		})
		tbl.AddRow(d.name, piA, piTC, piBT, piDR)
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "Expected ordering (Fig. 3): Altruism >= T-Chain >= FairTorrent >= BitTorrent >= Reputation >> Reciprocity")
	fmt.Fprintln(w)
	return sink.AddTable("figure3", tbl)
}

// flashCrowdDist: 80% of users have nothing, the rest hold a few pieces.
func flashCrowdDist(m int) analysis.PieceCountDist {
	dist := make(analysis.PieceCountDist, m+1)
	dist[0] = 0.8
	for k := 1; k <= 10; k++ {
		dist[k] = 0.02
	}
	return dist
}

// Table2 prints the flash-crowd bootstrap probabilities with the paper's
// example parameters; the rightmost column should read 0.1%, 71.4%, 39.6%,
// 71.4%, 22.2%, 91.8%.
func Table2(_ Scale, w io.Writer, sink *report.Sink) error {
	p := analysis.TableIIExample()
	tbl := report.NewTable(
		fmt.Sprintf("Table II: bootstrap probability (N=%d, n_S=%d, K=%d, z=%d, pi_DR=%.2f, n_BT=%d, omega=%.2f, n_FT=%d)",
			p.N, p.NS, p.K, p.Z, p.PiDR, p.NBT, p.Omega, p.NFT),
		"Algorithm", "Probability", "Paper")
	paper := map[algo.Algorithm]string{
		algo.Reciprocity: "0.1%", algo.TChain: "71.4%", algo.BitTorrent: "39.6%",
		algo.FairTorrent: "71.4%", algo.Reputation: "22.2%", algo.Altruism: "91.8%",
	}
	for _, a := range algo.All() {
		prob, err := p.BootstrapProbability(a)
		if err != nil {
			return err
		}
		tbl.AddRow(a.String(), fmt.Sprintf("%.1f%%", prob*100), paper[a])
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	return sink.AddTable("table2", tbl)
}

// Lemma3 prints E[T_B(P)] for a sweep of flash-crowd sizes, per algorithm,
// using each algorithm's Table II probability at the example operating
// point.
func Lemma3(_ Scale, w io.Writer, sink *report.Sink) error {
	params := analysis.TableIIExample()
	sizes := []int{1, 10, 100, 1000}
	headers := make([]string, 0, len(sizes)+1)
	headers = append(headers, "Algorithm")
	for _, p := range sizes {
		headers = append(headers, fmt.Sprintf("E[T_B(%d)]", p))
	}
	tbl := report.NewTable("Lemma 3: expected slots until P newcomers bootstrap", headers...)
	for _, a := range algo.All() {
		prob, err := params.BootstrapProbability(a)
		if err != nil {
			return err
		}
		row := []any{a.String()}
		for _, p := range sizes {
			if prob <= 0 {
				row = append(row, "inf")
				continue
			}
			et, err := analysis.ExpectedBootstrapTimeConst(p, prob, 10_000_000)
			if err != nil {
				return err
			}
			row = append(row, et)
		}
		tbl.AddRow(row...)
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	return sink.AddTable("lemma3", tbl)
}

// Table3 prints the free-riding exposure of each algorithm: exploitable
// resources and collusion probability.
func Table3(_ Scale, w io.Writer, sink *report.Sink) error {
	s, err := analysisScenario()
	if err != nil {
		return err
	}
	// π_IR at a mid-swarm operating point.
	dist := analysis.UniformPieceCounts(128)
	piIR := analysis.MeanExchangeProbability(dist, func(mi, mj int) float64 {
		return analysis.PiIndirectReciprocity(mi, mj, 128, s.N(), dist)
	})
	p := analysis.FreeRideParams{
		TotalCapacity: s.TotalCapacity(),
		AlphaBT:       s.AlphaBT,
		AlphaR:        s.AlphaR,
		Omega:         0.75,
		PiIR:          piIR,
		FreeRiders:    s.N() / 5,
		N:             s.N(),
	}
	rows, err := p.TableIII()
	if err != nil {
		return err
	}
	tbl := report.NewTable(
		fmt.Sprintf("Table III: free-riding exposure (Sum U=%.4g, alpha_BT=%.2f, alpha_R=%.2f, omega=%.2f, m=%d)",
			p.TotalCapacity, p.AlphaBT, p.AlphaR, p.Omega, p.FreeRiders),
		"Algorithm", "Exploitable", "Fraction of Sum U", "Collusion prob")
	for _, r := range rows {
		tbl.AddRow(r.Algorithm.String(), r.Exploitable, r.Exploitable/p.TotalCapacity, r.Collusion)
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	return sink.AddTable("table3", tbl)
}

// Prop3 sweeps a reputation skew on one mid-capacity user and prints how
// both fairness and efficiency degrade (Proposition 3).
func Prop3(_ Scale, w io.Writer, sink *report.Sink) error {
	s, err := analysisScenario()
	if err != nil {
		return err
	}
	tbl := report.NewTable("Proposition 3: reputation skew vs fairness and efficiency",
		"Skew factor", "F", "E (normalized)")
	baseReps := analysis.ProportionalReputations(s.Capacities)
	_, e0, err := analysis.ReputationEquilibrium(baseReps, s.Capacities)
	if err != nil {
		return err
	}
	for _, factor := range []float64{1, 0.5, 0.2, 0.1, 0.05, 0.01} {
		reps := analysis.SkewedReputations(s.Capacities, s.N()/2, factor)
		f, e, err := analysis.ReputationEquilibrium(reps, s.Capacities)
		if err != nil {
			return err
		}
		tbl.AddRow(factor, f, e/e0)
	}
	if err := tbl.WriteText(w); err != nil {
		return err
	}
	return sink.AddTable("prop3", tbl)
}
