package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/attack"
	"repro/internal/incentive"
)

// TestConfigValidateTable drives Validate through the edge cases the
// scattered integration tests don't pin down: arrival-pattern coupling,
// churn-parameter bounds, and non-finite horizons.
func TestConfigValidateTable(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // substring of the error; "" means valid
	}{
		{"defaults valid", func(c *Config) {}, ""},
		{"poisson missing interarrival", func(c *Config) {
			c.Arrival = ArrivalPoisson
			c.MeanInterarrival = 0
		}, "MeanInterarrival"},
		{"poisson negative interarrival", func(c *Config) {
			c.Arrival = ArrivalPoisson
			c.MeanInterarrival = -3
		}, "MeanInterarrival"},
		{"poisson with interarrival valid", func(c *Config) {
			c.Arrival = ArrivalPoisson
			c.MeanInterarrival = 2.5
		}, ""},
		{"unknown arrival pattern", func(c *Config) { c.Arrival = ArrivalPattern(99) }, "arrival pattern"},
		{"interarrival ignored for flash crowd", func(c *Config) { c.MeanInterarrival = -1 }, ""},
		{"abort rate negative", func(c *Config) { c.AbortRate = -0.1 }, "AbortRate"},
		{"abort rate at one", func(c *Config) { c.AbortRate = 1 }, "AbortRate"},
		{"abort rate boundary valid", func(c *Config) { c.AbortRate = 0.999 }, ""},
		{"seeder exit negative", func(c *Config) { c.SeederExitAt = -1 }, "SeederExitAt"},
		{"seeder exit zero means never", func(c *Config) { c.SeederExitAt = 0 }, ""},
		{"horizon NaN", func(c *Config) { c.Horizon = math.NaN() }, "Horizon"},
		{"horizon zero rejected (reciprocity never drains)", func(c *Config) {
			c.Algorithm = algo.Reciprocity
			c.Horizon = 0
		}, "Horizon"},
		{"horizon negative", func(c *Config) { c.Horizon = -100 }, "Horizon"},
		{"free riders need a fraction below one", func(c *Config) { c.FreeRiderFraction = 1 }, "FreeRiderFraction"},
		{"snapshot negative", func(c *Config) { c.SnapshotAt = -5 }, "SnapshotAt"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default(algo.BitTorrent, 50, 16)
			tc.mutate(&cfg)
			err := cfg.Validate()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("config accepted, want error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidateNormalizesInPlace(t *testing.T) {
	cfg := Default(algo.BitTorrent, 50, 16)
	cfg.Arrival = 0 // unset: should normalize to the flash crowd
	cfg.Incentive = incentive.Params{}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Arrival != ArrivalFlashCrowd {
		t.Errorf("Arrival not defaulted: %d", cfg.Arrival)
	}
	if cfg.Incentive.NBT == 0 {
		t.Error("Incentive params not normalized")
	}
}

// TestOptionsSetFields checks each functional option against direct field
// mutation — Default's documented equivalence.
func TestOptionsSetFields(t *testing.T) {
	plan := attack.Plan{Kind: attack.Passive}
	cfg := Default(algo.BitTorrent, 50, 16,
		WithSeed(42),
		WithHorizon(777),
		WithFreeRiders(0.25, plan),
		WithSeeder(1<<18),
		WithNeighbors(12),
		WithArrival(ArrivalPoisson, 3),
		WithAbortRate(0.1),
		WithSeederExit(99),
		WithSnapshotAt(50),
		WithConfig(func(c *Config) { c.UploadSlots = 7 }),
	)
	want := Default(algo.BitTorrent, 50, 16)
	want.Seed = 42
	want.Horizon = 777
	want.FreeRiderFraction, want.Attack = 0.25, plan
	want.SeederRate = 1 << 18
	want.MaxNeighbors = 12
	want.Arrival, want.MeanInterarrival = ArrivalPoisson, 3
	want.AbortRate, want.SeederExitAt = 0.1, 99
	want.SnapshotAt = 50
	want.UploadSlots = 7
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("options diverge from direct mutation:\n got %+v\nwant %+v", cfg, want)
	}
}
