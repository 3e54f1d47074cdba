package main

import (
	"runtime"
	"syscall"
	"time"
)

// round is what one round of a workload measured: one file through one
// fresh cluster, one simulation run, or one regenerated figure.
type round struct {
	Traced bool `json:"traced"`

	SetupS     float64 `json:"setup_s"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`

	// Ops is the pieces delivered; Completions the seconds each download
	// (swarm: one leecher; sim: the round) took from the start of WallS.
	Ops         int       `json:"ops"`
	Completions []float64 `json:"completions_s"`
	Attempted   int       `json:"attempted"`
	Failed      int       `json:"failed"`
	Errors      []string  `json:"errors,omitempty"`

	// Swarm counters, read from Node.Stats and timed around Cluster calls.
	Frames   int64   `json:"frames,omitempty"`
	Uploaded float64 `json:"uploaded_bytes,omitempty"`
	Credited float64 `json:"credited_bytes,omitempty"`
	StartS   float64 `json:"start_s,omitempty"`
	StopS    float64 `json:"stop_s,omitempty"`

	// Sim outputs: Events is 0 for the figure (experiment.Run returns only
	// the rendering); Digest is the SHA-256 of the figure text or of the
	// run's per-peer outcome.
	Events uint64 `json:"events,omitempty"`
	Digest string `json:"digest,omitempty"`
}

func (r *round) fail(n int, msg string) {
	r.Failed = min(r.Failed+n, r.Attempted)
	r.Errors = append(r.Errors, msg)
}

// usage is the process's cumulative CPU time and allocation counters; the
// difference of two readings brackets a measured section.
type usage struct {
	cpuS    float64
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{cpuS: tv(ru.Utime) + tv(ru.Stime), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// section brackets a measured section: call it at the start, and the
// function it returns at the end to fill r's wall, CPU and allocation deltas.
func (r *round) section() func() {
	u0, t0 := readUsage(), time.Now()
	return func() {
		r.WallS = time.Since(t0).Seconds()
		u1 := readUsage()
		r.CPUS = u1.cpuS - u0.cpuS
		r.Mallocs = u1.mallocs - u0.mallocs
		r.AllocBytes = u1.bytes - u0.bytes
	}
}

// maxRSSMiB is the process's peak resident set so far.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runRound runs round idx of w, recording spans when rec is not nil.
func runRound(w workload, seed int64, idx int, rec *recorder) round {
	// Every round starts from a collected heap, so one round's garbage (a
	// bulk round leaves a gigabyte) is not collected on the next one's clock.
	runtime.GC()
	var r round
	if w.isSim() {
		r = simRound(w, seed, idx, rec)
	} else {
		r = swarmRound(w, seed, idx, rec)
	}
	r.Traced = rec != nil
	return r
}

// measure runs one unmeasured warm-up round at 1/8 size, then whole rounds
// until seconds have passed: another round starts only while it is expected
// to end closer to the target than stopping now would. With a recorder,
// rounds alternate untraced and traced (at least one of each) so the traced
// pass carries its own untraced reference.
func measure(w workload, seed int64, seconds float64, rec *recorder) []round {
	runRound(w.shrunk(8), seed, -1, nil)
	minRounds := 1
	if rec != nil {
		minRounds = 2
	}
	var rounds []round
	start := time.Now()
	for {
		use := rec
		if len(rounds)%2 == 0 {
			use = nil
		}
		rounds = append(rounds, runRound(w, seed, len(rounds), use))
		elapsed := time.Since(start).Seconds()
		if len(rounds) >= minRounds && elapsed+elapsed/float64(len(rounds))/2 >= seconds {
			return rounds
		}
	}
}
