// Package experiment contains one runnable harness per table and figure in
// the paper's evaluation, plus the ablations DESIGN.md calls out. Each
// harness prints the same rows/series the paper reports and optionally
// persists CSV/JSON artifacts through a report.Sink.
package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/report"
)

// Scale sets the simulation size for the Section V experiments. The paper's
// full scale is 1000 peers and a 128 MB file (512 × 256 KB pieces);
// TestScale keeps CI fast while preserving every qualitative shape.
type Scale struct {
	NumPeers  int
	NumPieces int
	Horizon   float64
	Seed      int64
}

// FullScale reproduces the paper's experimental scale.
func FullScale() Scale { return Scale{NumPeers: 1000, NumPieces: 512, Horizon: 12000, Seed: 1} }

// TestScale is a fast scale for tests and quick iteration.
func TestScale() Scale { return Scale{NumPeers: 100, NumPieces: 48, Horizon: 900, Seed: 7} }

// Runner executes one experiment, writing human-readable output to w and
// artifacts to sink (which may be nil).
type Runner func(scale Scale, w io.Writer, sink *report.Sink) error

// registry maps experiment IDs to runners. IDs follow the paper's artifact
// names: table1..table3, figure2..figure6, lemma3, prop3, plus ablations.
var registry = map[string]Runner{
	"table1":             Table1,
	"table2":             Table2,
	"table3":             Table3,
	"figure2":            Figure2,
	"figure3":            Figure3,
	"lemma3":             Lemma3,
	"prop3":              Prop3,
	"figure4":            Figure4,
	"figure5":            Figure5,
	"figure6":            Figure6,
	"ablation-alphabt":   AblationAlphaBT,
	"ablation-nbt":       AblationNBT,
	"ablation-seeder":    AblationSeeder,
	"ablation-largeview": AblationNeighborView,
	"ablation-whitewash": AblationWhitewash,
	"ablation-praise":    AblationFalsePraise,
	"ablation-indirect":  AblationIndirect,
	"ablation-propshare": AblationPropShare,
	"ablation-arrival":   AblationArrival,
	"ablation-churn":     AblationChurn,

	"validate-availability": ValidateAvailability,
	"validate-bootstrap":    ValidateBootstrap,
	"validate-fluid":        ValidateFluid,
}

// Names returns the registered experiment IDs, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run executes the named experiment.
func Run(name string, scale Scale, w io.Writer, sink *report.Sink) error {
	runner, ok := registry[strings.ToLower(name)]
	if !ok {
		return fmt.Errorf("experiment: unknown experiment %q (have: %s)",
			name, strings.Join(Names(), ", "))
	}
	return runner(scale, w, sink)
}
