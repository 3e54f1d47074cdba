package eventsim

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestRunInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(3, func(float64) { order = append(order, 3) })
	e.Schedule(1, func(float64) { order = append(order, 1) })
	e.Schedule(2, func(float64) { order = append(order, 2) })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now = %g, want 3", e.Now())
	}
	if e.Processed() != 3 {
		t.Errorf("Processed = %d, want 3", e.Processed())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func(float64) { order = append(order, i) })
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("tie-break order = %v", order)
		}
	}
}

func TestSchedulingFromHandler(t *testing.T) {
	e := New()
	count := 0
	var tick Handler
	tick = func(now float64) {
		count++
		if count < 5 {
			e.After(1, tick)
		}
	}
	e.Schedule(0, tick)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if e.Now() != 4 {
		t.Errorf("Now = %g, want 4", e.Now())
	}
}

func TestHorizonPausesAndResumes(t *testing.T) {
	e := New()
	var fired []float64
	for _, at := range []float64{1, 5, 9} {
		at := at
		e.Schedule(at, func(now float64) { fired = append(fired, now) })
	}
	if err := e.Run(6); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v before horizon 6", fired)
	}
	if e.Now() != 6 {
		t.Errorf("clock at %g, want horizon 6", e.Now())
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || fired[2] != 9 {
		t.Errorf("resume fired = %v", fired)
	}
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	e.Schedule(1, func(float64) { count++; e.Stop() })
	e.Schedule(2, func(float64) { count++ })
	err := e.Run(0)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if count != 1 {
		t.Errorf("count = %d, want 1", count)
	}
	// Remaining event still runs on resume.
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("after resume count = %d, want 2", count)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	timer := e.Schedule(1, func(float64) { fired = true })
	timer.Cancel()
	if !timer.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("canceled event fired")
	}
	// Canceling the zero Timer and double-cancel are no-ops.
	var zero Timer
	zero.Cancel()
	timer.Cancel()
}

func TestCancelReleasesHandler(t *testing.T) {
	// The lazy-cancel leak fix: Cancel must drop the handler closure
	// immediately, not when the entry surfaces from the queue.
	e := New()
	timer := e.Schedule(1, func(float64) { t.Error("canceled fired") })
	if timer.ev.handler == nil {
		t.Fatal("handler missing before cancel")
	}
	timer.Cancel()
	if timer.ev.handler != nil {
		t.Error("Cancel left the handler closure reachable")
	}
	if timer.Pending() {
		t.Error("Pending() = true after Cancel")
	}
}

func TestRunDropsCanceledEntries(t *testing.T) {
	// Canceled entries are dropped (and recycled) as they surface; the
	// queue fully drains without firing them.
	e := New()
	timers := make([]Timer, 0, 10)
	for i := 0; i < 10; i++ {
		timers = append(timers, e.Schedule(float64(i+1), func(float64) { t.Error("canceled fired") }))
	}
	for _, timer := range timers {
		timer.Cancel()
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending = %d before run, want 10", e.Pending())
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after run, want 0", e.Pending())
	}
	if e.Processed() != 0 {
		t.Errorf("Processed = %d, want 0 (all events canceled)", e.Processed())
	}
	free := 0
	for ev := e.free; ev != nil; ev = ev.next {
		free++
	}
	if free != 10 {
		t.Errorf("free list holds %d records, want 10", free)
	}
}

func TestStaleTimerCannotCancelRecycledEvent(t *testing.T) {
	// A Timer held across its event's firing must not cancel the record's
	// next occupant after free-list reuse.
	e := New()
	stale := e.Schedule(1, func(float64) {})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	fired := false
	fresh := e.Schedule(2, func(float64) { fired = true })
	if fresh.ev != stale.ev {
		t.Fatal("expected the event record to be recycled")
	}
	stale.Cancel()
	if stale.Canceled() {
		t.Error("stale handle reports Canceled")
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("stale Cancel killed the recycled event")
	}
}

func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	// Once the free list is primed, a schedule/fire cycle reuses its event
	// record and the value Timer never escapes.
	e := New()
	e.Schedule(0, func(float64) {})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	h := Handler(func(float64) {})
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now(), h)
		e.Step()
	})
	if allocs > 0 {
		t.Errorf("steady-state schedule/fire allocates %.1f objects/op, want 0", allocs)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(5, func(float64) {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(1, func(float64) {})
}

func TestScheduleNaNPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("NaN schedule did not panic")
		}
	}()
	e.Schedule(math.NaN(), func(float64) {})
}

func TestAfterNegativePanics(t *testing.T) {
	e := New()
	e.Schedule(5, func(float64) {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	e.After(-1, func(float64) {})
}

func TestStep(t *testing.T) {
	e := New()
	count := 0
	e.Schedule(1, func(float64) { count++ })
	e.Schedule(2, func(float64) { count++ })
	if !e.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if count != 1 || e.Now() != 1 {
		t.Errorf("after one step: count=%d now=%g", count, e.Now())
	}
	if !e.Step() || e.Step() {
		t.Error("Step availability wrong")
	}
}

func TestStepSkipsCanceled(t *testing.T) {
	e := New()
	timer := e.Schedule(1, func(float64) { t.Error("canceled fired") })
	timer.Cancel()
	fired := false
	e.Schedule(2, func(float64) { fired = true })
	if !e.Step() {
		t.Fatal("Step false")
	}
	if !fired {
		t.Error("Step did not skip canceled event")
	}
}

func TestPending(t *testing.T) {
	e := New()
	e.Schedule(1, func(float64) {})
	e.Schedule(2, func(float64) {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
}

// clock is what the order-equivalence driver needs of an engine, so the same
// script runs against the radix queue and against naiveEngine.
type clock interface {
	Now() float64
	Schedule(t float64, h Handler) (cancel func())
	Step() bool
	Run(horizon float64)
}

type radixClock struct{ *Engine }

func (c radixClock) Schedule(t float64, h Handler) func() { return c.Engine.Schedule(t, h).Cancel }
func (c radixClock) Run(horizon float64) {
	if err := c.Engine.Run(horizon); err != nil {
		panic(err)
	}
}

// naiveEngine is the reference the queue must match: a flat list popped by
// a linear scan for the least (time, scheduling order), canceled entries
// skipped.
type naiveEngine struct {
	now   float64
	seq   int
	queue []*naiveEvent
}

type naiveEvent struct {
	t        float64
	seq      int
	h        Handler
	canceled bool
}

func (n *naiveEngine) Now() float64 { return n.now }

func (n *naiveEngine) Schedule(t float64, h Handler) func() {
	ev := &naiveEvent{t: t, seq: n.seq, h: h}
	n.seq++
	n.queue = append(n.queue, ev)
	return func() { ev.canceled = true }
}

// next returns the index of the earliest live event, or -1.
func (n *naiveEngine) next() int {
	best := -1
	for i, ev := range n.queue {
		if ev.canceled {
			continue
		}
		if b := best; b < 0 || ev.t < n.queue[b].t || (ev.t == n.queue[b].t && ev.seq < n.queue[b].seq) {
			best = i
		}
	}
	return best
}

func (n *naiveEngine) fire(i int) {
	ev := n.queue[i]
	n.queue = slices.Delete(n.queue, i, i+1)
	n.now = ev.t
	ev.h(n.now)
}

func (n *naiveEngine) Step() bool {
	i := n.next()
	if i >= 0 {
		n.fire(i)
	}
	return i >= 0
}

func (n *naiveEngine) Run(horizon float64) {
	for i := n.next(); i >= 0; i = n.next() {
		if horizon > 0 && n.queue[i].t > horizon {
			n.now = horizon
			return
		}
		n.fire(i)
	}
}

type firing struct {
	id int
	at float64
}

// scriptedRun drives c through one seeded script — schedules at equal times,
// at Now() from inside handlers, at -0 and +Inf, cancels, Steps, Runs that
// stop at a horizon followed by Schedules into the gap they leave — and
// returns the sequence of events that fired.
func scriptedRun(c clock, seed int64) []firing {
	rng := rand.New(rand.NewSource(seed))
	var trace []firing
	var cancels []func()
	var schedule func()
	schedule = func() {
		if len(cancels) >= 3000 {
			return
		}
		now := c.Now()
		t := now + rng.Float64()*4
		switch rng.Intn(10) {
		case 0, 1:
			t = now
		case 2, 3:
			t = now + float64(rng.Intn(3))
		case 4:
			if now == 0 {
				t = math.Copysign(0, -1)
			}
		case 5:
			if rng.Intn(8) == 0 {
				t = math.Inf(1)
			}
		}
		id := len(cancels)
		cancels = append(cancels, c.Schedule(t, func(at float64) {
			trace = append(trace, firing{id, at})
			for k := rng.Intn(3); k > 0; k-- {
				schedule()
			}
			if rng.Intn(4) == 0 {
				cancels[rng.Intn(len(cancels))]()
			}
		}))
	}
	for op := 0; op < 400; op++ {
		switch rng.Intn(6) {
		case 0, 1:
			for k := 1 + rng.Intn(4); k > 0; k-- {
				schedule()
			}
		case 2:
			if len(cancels) > 0 {
				cancels[rng.Intn(len(cancels))]()
			}
		case 3:
			c.Step()
		case 4:
			// Stop at a horizon, then schedule into the gap before the next
			// queued event: at the horizon itself and just after it.
			c.Run(c.Now() + 0.01 + rng.Float64()*3)
			schedule()
			schedule()
		default:
			c.Step()
			c.Step()
		}
	}
	c.Run(0)
	return trace
}

// TestQueueMatchesSortedOrder: over random scripts, the radix queue fires
// exactly the events a sort by (time, scheduling order) fires, in the same
// order and at the same times, and ends drained.
func TestQueueMatchesSortedOrder(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		e := New()
		got := scriptedRun(radixClock{e}, seed)
		ref := &naiveEngine{}
		want := scriptedRun(ref, seed)
		if len(got) < 200 {
			t.Fatalf("seed %d: only %d events fired; the script must exercise the queue", seed, len(got))
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is event %d at %g, reference event %d at %g",
					seed, i, got[i].id, got[i].at, want[i].id, want[i].at)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events fired, reference %d", seed, len(got), len(want))
		}
		if e.Now() != ref.Now() || e.Processed() != uint64(len(got)) || e.Pending() != 0 {
			t.Errorf("seed %d: now %g (reference %g), processed %d of %d, pending %d",
				seed, e.Now(), ref.Now(), e.Processed(), len(got), e.Pending())
		}
	}
}

// TestScheduleIntoHorizonGap: a Run that stops at a horizon leaves the clock
// below the next queued event; events scheduled into that gap, and at the
// horizon itself, still fire first and in order.
func TestScheduleIntoHorizonGap(t *testing.T) {
	e := New()
	var order []int
	at := func(tm float64, id int) { e.Schedule(tm, func(float64) { order = append(order, id) }) }
	at(1, 1)
	at(100, 4)
	if err := e.Run(50); err != nil {
		t.Fatal(err)
	}
	at(60, 3)
	at(50, 2)
	at(100, 5)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []int{1, 2, 3, 4, 5}) {
		t.Errorf("order = %v, want [1 2 3 4 5]", order)
	}
}

func TestNegativeZeroIsZero(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(0, func(float64) { order = append(order, 1) })
	e.Schedule(math.Copysign(0, -1), func(float64) { order = append(order, 2) })
	e.Schedule(0, func(float64) { order = append(order, 3) })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []int{1, 2, 3}) {
		t.Errorf("order = %v: -0 must tie with +0 in scheduling order", order)
	}
}

func TestManyEventsStress(t *testing.T) {
	e := New()
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		e.Schedule(float64(n-i), func(float64) { count++ })
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Errorf("count = %d, want %d", count, n)
	}
}
