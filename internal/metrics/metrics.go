// Package metrics is the live cluster's telemetry core: sharded,
// allocation-free counters, pull-style gauges, and log-bucketed latency
// histograms behind a namespaced Registry with point-in-time snapshots, Prometheus
// text-format and JSON exposition, and expvar publication.
//
// Design constraints, in order (mirroring internal/probe's contract for
// the simulator side):
//
//  1. Near-zero hot-path cost. Counter.Add and Histogram.Observe are a
//     shard pick plus one to three uncontended atomic adds — no locks, no
//     allocation, no time lookups. scripts/check.sh pins both at
//     0 allocs/op.
//  2. Write-side sharding, read-side merging. Writers spread across
//     cache-line-padded per-CPU-ish shards so concurrent producers do not
//     bounce a shared line; Value/Snapshot folds the shards on the (rare,
//     cold) read path.
//  3. One vocabulary. Every live subsystem (node_, …)
//     registers in the same Registry, so dashboards and scripts read one
//     metric namespace regardless of which layer produced a series.
//
// Consistency model: every cell is updated with atomic operations, so a
// Snapshot is tear-free per metric value but not a cross-metric linearized
// cut — two counters incremented together may differ by in-flight updates.
// Histogram snapshots merge per-shard cells one atomic load at a time, so
// Count, Sum, and the bucket totals may disagree transiently by the few
// observations that landed mid-merge. All drift is bounded by concurrent
// write volume and never survives quiescence.
package metrics

import (
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// shardCount is the number of write shards per metric: GOMAXPROCS at
// process start rounded up to a power of two, capped at 16. A power of
// two keeps the shard pick a mask; the cap bounds per-metric memory for
// huge machines (shards beyond the writer count only cost merge work).
var shardCount = func() int {
	n := runtime.GOMAXPROCS(0)
	if n > 16 {
		n = 16
	}
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}()

// shardMask selects a shard from a hash; shardCount is a power of two.
var shardMask = uint64(shardCount - 1)

// shardHint returns a goroutine-affine shard index. It hashes the stack
// address of a local, which is distinct per goroutine (and stable between
// stack growths), so each goroutine keeps hitting the same shard — the
// per-CPU approximation available without runtime internals. The
// unsafe.Pointer→uintptr conversion is the always-legal direction; the
// pointer never escapes and the local stays on the stack, so the hint
// costs a few instructions and zero allocations.
func shardHint() uint64 {
	var b byte
	h := uint64(uintptr(unsafe.Pointer(&b))) * 0x9E3779B97F4A7C15
	return (h >> 40) & shardMask
}

// cacheLine is the assumed cache-line size the shard padding targets.
const cacheLine = 64

// counterShard is one cache-line-sized write cell of a Counter.
type counterShard struct {
	n atomic.Int64
	_ [cacheLine - 8]byte
}

// Counter is a monotonically increasing (by convention) sharded counter.
// Add never allocates and scales with concurrent writers; Value merges
// the shards. Create through Registry.Counter so the value is exported.
type Counter struct {
	shards []counterShard
}

// NewCounter returns a standalone counter; prefer Registry.Counter for
// anything that should appear in snapshots.
func NewCounter() *Counter {
	return &Counter{shards: make([]counterShard, shardCount)}
}

// Add increments the counter by delta. It is safe for concurrent use and
// performs no allocation.
func (c *Counter) Add(delta int64) {
	c.shards[shardHint()].n.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value folds the shards into the counter's current total.
func (c *Counter) Value() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].n.Load()
	}
	return total
}

// histBuckets is the number of log₂ buckets: bucket i holds observations
// v with bits.Len64(v) == i, i.e. bucket 0 holds v ≤ 0 and bucket i≥1
// holds [2^(i-1), 2^i). 64-bit values need at most index 64.
const histBuckets = 65

// histShard is one write cell of a Histogram. At 67 words it spans
// several cache lines regardless of padding; the trailing pad only keeps
// neighboring shards off a shared line.
type histShard struct {
	count   atomic.Uint64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Uint64
	_       [cacheLine - 16]byte
}

// Histogram is a sharded log₂-bucketed histogram for latencies (in
// nanoseconds, by repo convention — names end in _ns) and sizes (bytes,
// frames). Observe is three uncontended atomic adds and never allocates;
// Snapshot merges the shards on the read path.
type Histogram struct {
	shards []histShard
}

// NewHistogram returns a standalone histogram; prefer Registry.Histogram.
func NewHistogram() *Histogram {
	return &Histogram{shards: make([]histShard, shardCount)}
}

// bucketIndex maps an observation to its log₂ bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one value. Negative values land in bucket 0 (and still
// contribute to Sum); observations are expected to be nonnegative.
func (h *Histogram) Observe(v int64) {
	s := &h.shards[shardHint()]
	s.count.Add(1)
	s.sum.Add(v)
	s.buckets[bucketIndex(v)].Add(1)
}

// Snapshot merges the shards into a point-in-time view (see the package
// comment for the exact consistency guarantee).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var snap HistogramSnapshot
	var buckets [histBuckets]uint64
	top := -1
	for i := range h.shards {
		s := &h.shards[i]
		snap.Count += s.count.Load()
		snap.Sum += s.sum.Load()
		for b := 0; b < histBuckets; b++ {
			if n := s.buckets[b].Load(); n != 0 {
				buckets[b] += n
				if b > top {
					top = b
				}
			}
		}
	}
	snap.Buckets = append([]uint64(nil), buckets[:top+1]...)
	return snap
}

// HistogramSnapshot is a merged, immutable view of a Histogram. Buckets
// is trimmed after the last nonzero cell; bucket i covers [2^(i-1), 2^i)
// with bucket 0 holding v ≤ 0.
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count uint64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum int64 `json:"sum"`
	// Buckets holds per-log₂-bucket observation counts, trimmed of
	// trailing zeros.
	Buckets []uint64 `json:"buckets,omitempty"`
}

// Mean returns the average observed value (NaN-free: 0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// BucketUpperBound returns bucket i's inclusive upper bound as a float
// (0 for bucket 0, 2^i−1 otherwise; +Inf past the representable range).
func BucketUpperBound(i int) float64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.Inf(1)
	}
	return float64(uint64(1)<<uint(i) - 1)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by walking the merged
// buckets and interpolating linearly inside the covering bucket. The
// log₂ buckets bound the relative error by 2×, which is plenty for the
// order-of-magnitude latency questions the dashboard asks. Returns 0 for
// an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo := 0.0
			if i > 0 {
				lo = float64(uint64(1) << uint(i-1))
			}
			hi := BucketUpperBound(i)
			if math.IsInf(hi, 1) {
				return lo
			}
			frac := (rank - cum) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return BucketUpperBound(len(s.Buckets) - 1)
}
