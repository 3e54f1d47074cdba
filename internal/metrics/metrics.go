// Package metrics is the live cluster's telemetry core: allocation-free
// counters and pull-style gauges behind a namespaced Registry with
// point-in-time snapshots, Prometheus text-format and JSON exposition, and
// expvar publication.
//
// Design constraints, in order:
//
//  1. Near-zero hot-path cost. Counter.Add is one atomic add — no locks,
//     no allocation, no time lookups. scripts/check.sh pins it at
//     0 allocs/op.
//  2. One vocabulary. Every live subsystem (node_, …)
//     registers in the same Registry, so dashboards and scripts read one
//     metric namespace regardless of which layer produced a series.
//
// Consistency model: every counter is updated with atomic operations, so a
// Snapshot is tear-free per metric value but not a cross-metric linearized
// cut — two counters incremented together may differ by in-flight updates.
// The drift is bounded by concurrent write volume and never survives
// quiescence.
package metrics

import "sync/atomic"

// Counter is a monotonically increasing (by convention) counter. Add never
// allocates. Create through Registry.Counter so the value is exported.
type Counter struct {
	n atomic.Int64
}

// NewCounter returns a standalone counter; prefer Registry.Counter for
// anything that should appear in snapshots.
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by delta. It is safe for concurrent use and
// performs no allocation.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the counter's current total.
func (c *Counter) Value() int64 { return c.n.Load() }
