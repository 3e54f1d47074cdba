// Package eventsim implements a deterministic discrete-event simulation
// engine: a virtual clock and a priority queue of scheduled callbacks.
//
// The engine is single-threaded by design — discrete-event simulation derives
// its reproducibility from a total order over events, so all model code runs
// on the goroutine that calls Run. Events scheduled for the same instant run
// in the order they were scheduled, which makes runs bit-for-bit repeatable
// for a fixed seed. (Many engines may run concurrently — one per goroutine —
// as long as each engine stays confined to its goroutine; the parallel
// replication runner in internal/runner relies on exactly that.)
//
// Event records are recycled through a per-engine free list: in steady state
// a Schedule/fire cycle performs no heap allocation, which matters because
// the swarm simulator schedules millions of events per run. Timer handles
// carry a generation number so a stale handle held across a recycle can
// never cancel the record's next occupant.
//
// The priority queue is a monotone radix queue (Ahuja, Mehlhorn, Orlin and
// Tarjan's radix heap, with base-16 digits) keyed by the IEEE-754 bits of
// each event's time, which order non-negative times exactly as the times
// themselves. Schedule refuses the past, so no key is ever below the last
// one popped (the floor), and a record lives in the bucket named by the
// highest digit in which its key differs from the floor and its value there.
// Bucket 0 holds the keys equal to the floor; when it runs dry, the lowest
// non-empty bucket is re-spread around its own least key, and each record
// moves down only a few times in its life. The buckets are FIFO lists
// threaded through the records themselves, so the queue costs no memory
// beyond them, and every list stays in scheduling order: pushes append the
// newest record, and a re-spread walks its bucket in order into buckets that
// are empty. Equal times therefore pop first-come first-served, the same
// sequence a sort by (time, scheduling order) gives.
package eventsim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrStopped is returned by Run when the simulation was halted explicitly
// via Stop rather than by draining the event queue or reaching the horizon.
var ErrStopped = errors.New("eventsim: stopped")

// Handler is a scheduled callback. It runs at its scheduled virtual time and
// may schedule further events.
type Handler func(now float64)

// event is one schedulable record. key is the bits of its time and next
// links it into its bucket (or the free list). gen counts free-list recycles
// in steps of two so stale Timer handles become inert; its low bit marks the
// current occupant canceled.
type event struct {
	key     uint64
	next    *event
	gen     uint64
	handler Handler
}

// canceled reports whether the record's current occupant was canceled.
func (ev *event) canceled() bool { return ev.gen&1 != 0 }

// Timer is a handle to a scheduled event that can be canceled. The zero
// Timer is valid and inert: Cancel is a no-op and Canceled reports false.
// Timers are small values; copy them freely.
type Timer struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing. Canceling an already-fired,
// already-canceled, or zero timer is a no-op. Cancel is O(1); the queue
// drops canceled records lazily when they surface, but the handler closure
// (and everything it captures) is released immediately so a canceled timer
// never retains model state until pop time.
func (t Timer) Cancel() {
	if t.ev != nil && t.ev.gen == t.gen {
		t.ev.gen |= 1
		t.ev.handler = nil
	}
}

// Canceled reports whether Cancel was called before the event fired.
func (t Timer) Canceled() bool { return t.ev != nil && t.ev.gen == t.gen|1 }

// Pending reports whether the event is still scheduled: not canceled, not
// yet fired, and not a zero handle.
func (t Timer) Pending() bool { return t.ev != nil && t.ev.gen == t.gen }

// The queue's buckets. A key that equals the floor is in bucket 0; any
// other is in bucket level·radix + digit, where level is the highest
// base-radix digit in which it differs from the floor and digit is its own
// value there (never 0: it exceeds the floor's). Bucket order is key order,
// and a re-spread moves every record at least one level down, so a record
// moves at most 64/digitBits times and, in practice, only as many times as
// there are digits between its delay and the queue's spacing.
const (
	digitBits  = 4
	radix      = 1 << digitBits
	numBuckets = 64 / digitBits * radix
)

// bucket is one radix bucket: a FIFO list of records and the least key on it.
type bucket struct {
	head, tail *event
	min        uint64
}

// Engine is the simulation core. The zero value is not usable; construct
// with New.
type Engine struct {
	now float64
	// floor is the key every queued key is measured against: no queued key
	// is below it.
	floor     uint64
	buckets   [numBuckets]bucket
	occupied  [numBuckets / 64]uint64 // bit b%64 of word b/64 set iff buckets[b] is non-empty
	queued    int
	free      *event // recycled records, linked through next
	stopped   bool
	processed uint64
}

// New returns an engine with the clock at zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of queued (possibly canceled) events.
func (e *Engine) Pending() int { return e.queued }

// link appends ev to the bucket its distance from the floor names.
func (e *Engine) link(ev *event) {
	b := 0
	if x := ev.key ^ e.floor; x != 0 {
		level := (bits.Len64(x) - 1) / digitBits
		b = level*radix + int(ev.key>>(level*digitBits))&(radix-1)
	}
	bk := &e.buckets[b]
	ev.next = nil
	if bk.head == nil {
		bk.head, bk.min = ev, ev.key
		e.occupied[b/64] |= 1 << (b % 64)
	} else {
		bk.tail.next = ev
		bk.min = min(bk.min, ev.key)
	}
	bk.tail = ev
}

// lowest returns the lowest non-empty bucket; the queue must be non-empty.
// Every key in a bucket is below every key in a higher one, so its min is
// the least queued key.
func (e *Engine) lowest() int {
	w := 0
	for e.occupied[w] == 0 {
		w++
	}
	return w*64 + bits.TrailingZeros64(e.occupied[w])
}

// live reports whether any queued record is not canceled. It stops at the
// first live record, which is almost always the first one it looks at.
func (e *Engine) live() bool {
	for b := range e.buckets {
		for ev := e.buckets[b].head; ev != nil; ev = ev.next {
			if !ev.canceled() {
				return true
			}
		}
	}
	return false
}

// pop unlinks and returns the earliest record; the queue must be non-empty.
// When bucket 0 is empty, the floor rises to the lowest non-empty bucket's
// least key. A lone record there is the earliest and pops in place;
// otherwise the bucket is re-spread: its records keep their order and land
// in lower buckets, which are all empty, the least ones in bucket 0.
func (e *Engine) pop() *event {
	b := e.lowest()
	if b != 0 {
		bk := &e.buckets[b]
		e.floor = bk.min
		if bk.head != bk.tail {
			ev := bk.head
			*bk = bucket{}
			e.occupied[b/64] &^= 1 << (b % 64)
			for ev != nil {
				next := ev.next
				e.link(ev)
				ev = next
			}
			b = 0
		}
	}
	bk := &e.buckets[b]
	ev := bk.head
	if bk.head = ev.next; bk.head == nil {
		bk.tail = nil
		e.occupied[b/64] &^= 1 << (b % 64)
	}
	ev.next = nil
	e.queued--
	return ev
}

// acquire returns a recycled event record, or a fresh one when the free
// list is empty.
func (e *Engine) acquire() *event {
	if ev := e.free; ev != nil {
		e.free = ev.next
		ev.next = nil
		return ev
	}
	return &event{}
}

// release returns a popped event to the free list, bumping its generation
// to the next even value so outstanding Timer handles go stale, and
// dropping the handler reference.
func (e *Engine) release(ev *event) {
	ev.gen = (ev.gen | 1) + 1
	ev.handler = nil
	ev.next = e.free
	e.free = ev
}

// Schedule runs h at absolute virtual time t. Scheduling in the past (t less
// than Now) panics: it indicates a causality bug in the model, and silently
// clamping would corrupt results. Scheduling exactly at Now is allowed and
// runs after currently pending events at this instant.
func (e *Engine) Schedule(t float64, h Handler) Timer {
	if t < e.now {
		panic(fmt.Sprintf("eventsim: schedule at %g before now %g", t, e.now))
	}
	if math.IsNaN(t) {
		panic("eventsim: schedule at NaN")
	}
	if t == 0 {
		t = 0 // -0 has the sign bit set; key it as +0, the instant it equals
	}
	if e.queued == 0 {
		// Popping canceled records may have raised the floor past Now;
		// with nothing queued, it can drop back to Now.
		e.floor = math.Float64bits(e.now)
	}
	ev := e.acquire()
	ev.key = math.Float64bits(t)
	ev.handler = h
	e.link(ev)
	e.queued++
	return Timer{ev: ev, gen: ev.gen}
}

// After runs h after delay d (relative scheduling). Negative delays panic.
func (e *Engine) After(d float64, h Handler) Timer {
	return e.Schedule(e.now+d, h)
}

// Stop halts the run loop after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in time order until the queue drains, the virtual
// clock passes horizon, or Stop is called. A non-positive horizon means no
// horizon. It returns ErrStopped if halted by Stop, nil otherwise.
//
// The horizon is checked against the least queued key before anything is
// popped, so wherever a handler or the caller can Schedule, the floor is at
// most Now or the queue is empty: a Schedule into the gap a horizon stop
// leaves is as monotone as any other, and nothing needs rebuilding.
func (e *Engine) Run(horizon float64) error {
	e.stopped = false
	for e.queued > 0 {
		if e.stopped {
			return ErrStopped
		}
		if horizon > 0 && math.Float64frombits(e.buckets[e.lowest()].min) > horizon {
			if e.live() {
				// Leave it queued so a subsequent Run with a later horizon
				// continues.
				e.now = horizon
				return nil
			}
			// Only canceled records remain: they surface and drop without
			// moving the clock.
			for e.queued > 0 {
				e.release(e.pop())
			}
			return nil
		}
		ev := e.pop()
		if ev.canceled() {
			e.release(ev)
			continue
		}
		// Recycle before dispatch so the handler's own scheduling reuses
		// this record; the handler and time are copied out first.
		h := ev.handler
		e.now = math.Float64frombits(ev.key)
		e.release(ev)
		e.processed++
		h(e.now)
	}
	return nil
}

// Step executes exactly one event and reports whether one was available.
func (e *Engine) Step() bool {
	for e.queued > 0 {
		ev := e.pop()
		if ev.canceled() {
			e.release(ev)
			continue
		}
		h := ev.handler
		e.now = math.Float64frombits(ev.key)
		e.release(ev)
		e.processed++
		h(e.now)
		return true
	}
	return false
}
