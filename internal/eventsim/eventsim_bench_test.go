package eventsim

import (
	"math/rand"
	"testing"
)

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.Schedule(float64(j), func(float64) {})
		}
		if err := e.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelfScheduling(b *testing.B) {
	// The simulator's dominant pattern: handlers that schedule their
	// successors.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		count := 0
		var tick Handler
		tick = func(float64) {
			count++
			if count < 1000 {
				e.After(1, tick)
			}
		}
		e.Schedule(0, tick)
		if err := e.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteadyStateReuse(b *testing.B) {
	// One long-lived engine draining schedule/fire cycles: the free list
	// keeps this at zero allocations per event in steady state.
	b.ReportAllocs()
	e := New()
	tick := Handler(func(float64) {})
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now(), tick)
		e.Step()
	}
}

// BenchmarkIdlePolls is Figure 4's stalled Reciprocity run in miniature:
// 1000 peers, each re-arming its idle poll U(0.5, 1.5) s ahead every time it
// fires, so the queue stays 1000 deep. One op is one event; scripts/check.sh
// holds it at 0 allocs/op.
func BenchmarkIdlePolls(b *testing.B) {
	e := New()
	rng := rand.New(rand.NewSource(1))
	var poll Handler
	poll = func(float64) { e.After(0.5+rng.Float64(), poll) }
	for i := 0; i < 1000; i++ {
		e.Schedule(rng.Float64(), poll)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkCancelHeavy(b *testing.B) {
	// Retry timers are frequently canceled before firing.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		timers := make([]Timer, 0, 1000)
		for j := 0; j < 1000; j++ {
			timers = append(timers, e.Schedule(float64(j), func(float64) {}))
		}
		for _, timer := range timers[:500] {
			timer.Cancel()
		}
		if err := e.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}
