// Package sim implements the event-driven swarm simulator the paper uses
// for its Section V evaluation (adapted there from the TBeT simulator; built
// from scratch here). A Swarm wires the discrete-event engine, the piece and
// bandwidth substrates, one incentive.Strategy per peer, a seeder, and the
// free-riding attack plans, and records the time series behind Figures 4–6.
package sim

import (
	"fmt"
	"math"

	"repro/internal/algo"
	"repro/internal/attack"
	"repro/internal/bandwidth"
	"repro/internal/incentive"
)

// Config parameterizes one simulation run. NewSwarm validates it; Default
// returns the paper's Section V-A setup scaled by the caller.
type Config struct {
	// Algorithm selects the incentive mechanism compliant peers run.
	Algorithm algo.Algorithm `json:"algorithm"`
	// NumPeers is the flash-crowd size (paper: 1000).
	NumPeers int `json:"num_peers"`
	// NumPieces and PieceSize define the file (paper: 128 MB; we use
	// 512 × 256 KB at full scale).
	NumPieces int     `json:"num_pieces"`
	PieceSize float64 `json:"piece_size"`
	// ArrivalWindow is the flash-crowd span in seconds (paper: 10 s).
	ArrivalWindow float64 `json:"arrival_window"`
	// Arrival selects the arrival process: the paper's flash crowd
	// (uniform over ArrivalWindow, the default) or a Poisson stream with
	// MeanInterarrival seconds between joins — the steady-state regime the
	// paper leaves to future work.
	Arrival ArrivalPattern `json:"arrival"`
	// MeanInterarrival is the Poisson arrival spacing (ArrivalPoisson only).
	MeanInterarrival float64 `json:"mean_interarrival"`
	// Horizon caps the virtual-time run length; needed because pure
	// reciprocity never completes. Zero means "until the swarm drains",
	// which never happens for reciprocity — validation rejects that combo.
	Horizon float64 `json:"horizon"`
	// SampleInterval is the metric sampling period in seconds.
	SampleInterval float64 `json:"sample_interval"`
	// MaxNeighbors bounds each compliant peer's neighbor set.
	MaxNeighbors int `json:"max_neighbors"`
	// UploadSlots is the number of concurrent uploads per peer.
	UploadSlots int `json:"upload_slots"`
	// SeederRate and SeederSlots describe the single seeder.
	SeederRate  float64 `json:"seeder_rate"`
	SeederSlots int     `json:"seeder_slots"`
	// Bandwidth is the peer upload-capacity mix.
	Bandwidth bandwidth.Distribution `json:"bandwidth"`
	// Incentive tunes the mechanisms (α_BT, n_BT, α_R, round length).
	Incentive incentive.Params `json:"incentive"`
	// FreeRiderFraction of peers free-ride (paper: 0.2 in Figures 5–6).
	FreeRiderFraction float64 `json:"free_rider_fraction"`
	// Attack is the free-rider behaviour; ignored when the fraction is 0.
	Attack attack.Plan `json:"attack"`
	// LeaveOnComplete makes peers exit as soon as they finish (paper: yes).
	LeaveOnComplete bool `json:"leave_on_complete"`
	// StopWhenCompliantDone ends the run as soon as every compliant peer
	// has finished, which is the paper's effective measurement window:
	// susceptibility counts what free-riders extracted while the system
	// was alive, not what they could leech afterwards.
	StopWhenCompliantDone bool `json:"stop_when_compliant_done"`
	// PollInterval is the idle-retry period for upload scheduling.
	PollInterval float64 `json:"poll_interval"`
	// SnapshotAt, when positive, records an AvailabilitySnapshot at that
	// virtual time (used by the validate-availability experiment).
	SnapshotAt float64 `json:"snapshot_at"`
	// AbortRate is the fraction of compliant peers that crash mid-download
	// at a uniformly random time before Horizon/2 — failure-injection
	// churn beyond the paper's leave-on-completion model.
	AbortRate float64 `json:"abort_rate"`
	// SeederExitAt, when positive, takes the seeder offline at that time —
	// the "origin disappears" stress the paper's collapse discussion
	// motivates.
	SeederExitAt float64 `json:"seeder_exit_at"`
	// Seed drives every random choice; runs replay bit-for-bit.
	Seed int64 `json:"seed"`
}

// Default returns the paper's experiment shape at a configurable scale:
// numPeers peers in a 10 s flash crowd downloading numPieces pieces of
// 256 KB each from one seeder, leaving on completion. The paper's full
// scale is Default(a, 1000, 512). Options are applied in order on top of
// the defaults; direct field mutation afterwards remains equivalent.
func Default(a algo.Algorithm, numPeers, numPieces int, opts ...Option) Config {
	cfg := Config{
		Algorithm:             a,
		NumPeers:              numPeers,
		NumPieces:             numPieces,
		PieceSize:             256 << 10,
		ArrivalWindow:         10,
		Horizon:               20000,
		SampleInterval:        5,
		MaxNeighbors:          incentive.DefaultMaxNeighbors,
		UploadSlots:           4,
		SeederRate:            1 << 20,
		SeederSlots:           8,
		Bandwidth:             bandwidth.DefaultDistribution(),
		Incentive:             incentive.DefaultParams(),
		LeaveOnComplete:       true,
		StopWhenCompliantDone: true,
		PollInterval:          1,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// Validate normalizes and checks the configuration in place.
func (c *Config) Validate() error {
	if _, err := algo.Parse(c.Algorithm.String()); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.NumPeers < 2 {
		return fmt.Errorf("sim: NumPeers %d too small", c.NumPeers)
	}
	if c.NumPieces < 1 {
		return fmt.Errorf("sim: NumPieces %d too small", c.NumPieces)
	}
	if c.PieceSize <= 0 {
		return fmt.Errorf("sim: PieceSize %g must be positive", c.PieceSize)
	}
	if c.ArrivalWindow < 0 {
		return fmt.Errorf("sim: ArrivalWindow %g negative", c.ArrivalWindow)
	}
	if c.Arrival == 0 {
		c.Arrival = ArrivalFlashCrowd
	}
	switch c.Arrival {
	case ArrivalFlashCrowd:
	case ArrivalPoisson:
		if c.MeanInterarrival <= 0 {
			return fmt.Errorf("sim: Poisson arrivals need MeanInterarrival > 0, got %g", c.MeanInterarrival)
		}
	default:
		return fmt.Errorf("sim: unknown arrival pattern %d", int(c.Arrival))
	}
	if c.Horizon <= 0 || math.IsNaN(c.Horizon) {
		return fmt.Errorf("sim: Horizon %g must be positive", c.Horizon)
	}
	if c.SampleInterval <= 0 {
		return fmt.Errorf("sim: SampleInterval %g must be positive", c.SampleInterval)
	}
	if c.MaxNeighbors < 1 {
		return fmt.Errorf("sim: MaxNeighbors %d too small", c.MaxNeighbors)
	}
	if c.UploadSlots < 1 || c.SeederSlots < 1 {
		return fmt.Errorf("sim: slots must be >= 1")
	}
	if c.SeederRate < 0 {
		return fmt.Errorf("sim: SeederRate %g negative", c.SeederRate)
	}
	if err := c.Bandwidth.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	normalized, err := c.Incentive.Normalize()
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	c.Incentive = normalized
	if c.FreeRiderFraction < 0 || c.FreeRiderFraction >= 1 {
		return fmt.Errorf("sim: FreeRiderFraction %g outside [0,1)", c.FreeRiderFraction)
	}
	if c.FreeRiderFraction > 0 {
		plan, err := c.Attack.Normalize()
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		c.Attack = plan
	}
	if c.PollInterval <= 0 {
		return fmt.Errorf("sim: PollInterval %g must be positive", c.PollInterval)
	}
	if c.SnapshotAt < 0 {
		return fmt.Errorf("sim: SnapshotAt %g negative", c.SnapshotAt)
	}
	if c.AbortRate < 0 || c.AbortRate >= 1 {
		return fmt.Errorf("sim: AbortRate %g outside [0,1)", c.AbortRate)
	}
	if c.SeederExitAt < 0 {
		return fmt.Errorf("sim: SeederExitAt %g negative", c.SeederExitAt)
	}
	return nil
}

// FileSize returns the file size in bytes.
func (c *Config) FileSize() float64 { return float64(c.NumPieces) * c.PieceSize }

// ArrivalPattern selects how peers join the swarm.
type ArrivalPattern int

// The arrival processes.
const (
	// ArrivalFlashCrowd scatters all arrivals uniformly over
	// ArrivalWindow — the paper's Section V setup.
	ArrivalFlashCrowd ArrivalPattern = iota + 1
	// ArrivalPoisson spaces arrivals with exponential interarrival times
	// of mean MeanInterarrival seconds.
	ArrivalPoisson
)
