package sim

import "repro/internal/attack"

// Option customizes a Config built by Default. Options are plain
// functions over the config, applied in order, so they compose with each
// other and with direct field assignment — a Config struct literal (or a
// post-hoc field mutation) remains fully supported; options are the
// ergonomic path for the common knobs.
type Option func(*Config)

// WithSeed fixes the run's random seed; equal seeds replay bit-for-bit.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithHorizon caps the simulated time in seconds.
func WithHorizon(seconds float64) Option {
	return func(c *Config) { c.Horizon = seconds }
}

// WithFreeRiders makes `fraction` of the peers free-ride using the given
// attack plan (see attack.MostEffective).
func WithFreeRiders(fraction float64, plan attack.Plan) Option {
	return func(c *Config) {
		c.FreeRiderFraction = fraction
		c.Attack = plan
	}
}

// WithSeeder sets the origin server's upload rate in bytes/second.
func WithSeeder(rate float64) Option {
	return func(c *Config) { c.SeederRate = rate }
}

// WithNeighbors bounds each compliant peer's neighbor set.
func WithNeighbors(maxNeighbors int) Option {
	return func(c *Config) { c.MaxNeighbors = maxNeighbors }
}

// WithArrival selects the arrival process; meanInterarrival is the Poisson
// spacing in seconds (ignored for the flash crowd).
func WithArrival(pattern ArrivalPattern, meanInterarrival float64) Option {
	return func(c *Config) {
		c.Arrival = pattern
		c.MeanInterarrival = meanInterarrival
	}
}

// WithAbortRate makes the given fraction of compliant peers crash
// mid-download (0 disables the failure injection).
func WithAbortRate(fraction float64) Option {
	return func(c *Config) { c.AbortRate = fraction }
}

// WithSeederExit makes the origin server go offline at the given virtual
// time (0 keeps it up for the whole run).
func WithSeederExit(at float64) Option {
	return func(c *Config) { c.SeederExitAt = at }
}

// WithSnapshotAt records an availability snapshot at the given virtual
// time (used by the validation experiments).
func WithSnapshotAt(t float64) Option {
	return func(c *Config) { c.SnapshotAt = t }
}

// WithConfig applies an arbitrary low-level mutation for knobs the other
// options do not cover.
func WithConfig(mod func(*Config)) Option {
	return func(c *Config) { mod(c) }
}
