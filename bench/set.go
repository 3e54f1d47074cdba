package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// summary is one (workload, metric) cell of a set: the median over reps
// with its quartiles and sample count.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// workloadResult is one workload's row block in result.json.
type workloadResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailShare float64            `json:"fail_share"`
	Errors    []string           `json:"errors,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]summary `json:"per_layer,omitempty"`

	// Events and Digest are the sim outputs every rep agreed on (what
	// golden.json pins at the golden seed).
	Events uint64 `json:"events,omitempty"`
	Digest string `json:"digest,omitempty"`
}

// setResult is bench/out/result.json: one full set with its provenance.
type setResult struct {
	Commit     string                    `json:"commit"`
	GoVersion  string                    `json:"go_version"`
	NumCPU     int                       `json:"nproc"`
	GoMaxProcs int                       `json:"gomaxprocs"`
	Seed       int64                     `json:"seed"`
	Seconds    float64                   `json:"seconds"`
	Date       string                    `json:"date"`
	Workloads  map[string]workloadResult `json:"workloads"`
}

func (s *setResult) failed() bool {
	for _, w := range s.Workloads {
		if w.Failed > 0 {
			return true
		}
	}
	return false
}

// runChild measures one workload in a fresh process — this same binary in
// its one-workload mode — and reads the result back from its detail line.
func runChild(w workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	// A failed check exits non-zero but still prints its detail line.
	for _, line := range bytes.Split(stdout, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("detail ")); ok {
			var res runResult
			if err := json.Unmarshal(rest, &res); err != nil {
				return nil, fmt.Errorf("%s: detail line: %w", w.name, err)
			}
			return &res, nil
		}
	}
	return nil, fmt.Errorf("%s: child printed no detail line (%v)", w.name, err)
}

// runSet runs every selected workload reps times, each rep in a fresh
// process, rep-major (rep 1 of every workload, then rep 2 …) so machine
// drift spreads across workloads, and reduces each metric to its median over
// reps. With traced, one more child per workload runs the traced pass.
func runSet(out io.Writer, selected []workload, seed int64, seconds float64, traced bool) (*setResult, []span, error) {
	runs := map[string][]*runResult{}
	for rep := 0; ; rep++ {
		ran := false
		for _, w := range selected {
			if rep >= w.reps {
				continue
			}
			ran = true
			fmt.Fprintf(out, "# rep %d/%d %s\n", rep+1, w.reps, w.name)
			res, err := runChild(w, seed, seconds, false)
			if err != nil {
				return nil, nil, err
			}
			runs[w.name] = append(runs[w.name], res)
		}
		if !ran {
			break
		}
	}

	set := &setResult{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Date: time.Now().UTC().Format(time.RFC3339), Workloads: map[string]workloadResult{},
	}
	var spans []span
	for _, w := range selected {
		wr := reduceReps(w, runs[w.name])
		if traced {
			fmt.Fprintf(out, "# traced pass %s\n", w.name)
			res, err := runChild(w, seed, seconds, true)
			if err != nil {
				return nil, nil, err
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.Errors = append(wr.Errors, res.Errors...)
			wr.PerLayer = map[string]summary{}
			for _, s := range perLayer {
				v := res.PerLayer[s.name]
				wr.PerLayer[s.name] = summary{Value: v, Unit: s.unit, N: 1, Q1: v, Q3: v}
			}
			spans = append(spans, res.Spans...)
		}
		wr.FailShare = float64(wr.Failed) / float64(wr.Attempted)
		set.Workloads[w.name] = wr
	}
	printSet(out, selected, set, spans)
	return set, spans, nil
}

// reduceReps folds one workload's reps: medians of the children's values,
// except the completion median, which pools every download of every rep,
// and the sim identity check, which needs all reps side by side.
func reduceReps(w workload, reps []*runResult) workloadResult {
	wr := workloadResult{EndToEnd: map[string]summary{}, Events: reps[0].Events, Digest: reps[0].Digest}
	values := map[string][]float64{}
	var completions []float64
	for _, res := range reps {
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		wr.Errors = append(wr.Errors, res.Errors...)
		for _, s := range endToEnd {
			values[s.name] = append(values[s.name], res.EndToEnd[s.name])
		}
		for _, r := range res.Rounds {
			completions = append(completions, r.Completions...)
		}
		if w.isSim() && (res.Events != reps[0].Events || res.Digest != reps[0].Digest) {
			wr.Failed = wr.Attempted
			wr.Errors = append(wr.Errors, fmt.Sprintf("reps disagree: %d events (digest %.12s) vs %d (%.12s)",
				res.Events, res.Digest, reps[0].Events, reps[0].Digest))
		}
	}
	values["completion_p50_s"] = completions
	for _, s := range endToEnd {
		q1, med, q3 := quartiles(values[s.name])
		wr.EndToEnd[s.name] = summary{Value: med, Unit: s.unit, N: len(values[s.name]), Q1: q1, Q3: q3}
	}
	return wr
}

func printSet(out io.Writer, selected []workload, set *setResult, spans []span) {
	fmt.Fprintf(out, "# commit=%s %s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g %s\n",
		set.Commit, set.GoVersion, set.NumCPU, set.GoMaxProcs, set.Seed, set.Seconds, set.Date)
	fmt.Fprintf(out, "# swarm_tcp crosses the host's loopback interface, not a real link\n")
	for _, w := range selected {
		wr := set.Workloads[w.name]
		for _, msg := range wr.Errors {
			fmt.Fprintf(out, "# error: %s: %s\n", w.name, msg)
		}
		fmt.Fprintf(out, "%-18s %-36s %14.6g %-6s n=%d\n", w.name, "fail_share", wr.FailShare, "ratio", wr.Attempted)
		for _, s := range endToEnd {
			c := wr.EndToEnd[s.name]
			fmt.Fprintf(out, "%-18s %-36s %14.6g %-6s n=%d q1=%.6g q3=%.6g\n", w.name, s.name, c.Value, c.Unit, c.N, c.Q1, c.Q3)
		}
	}
	if spans == nil {
		return
	}
	for _, w := range selected {
		for _, s := range perLayer {
			printMetric(out, w.name, s, set.Workloads[w.name].PerLayer[s.name].Value, nil)
		}
	}
	fmt.Fprint(out, layerNotes)
	printSelfTimes(out, spans)
}

// writeSet writes result.json (and trace.json for a traced set) under
// bench/out.
func writeSet(set *setResult, spans []span) error {
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	if err := writeOut("result.json", append(data, '\n')); err != nil || spans == nil {
		return err
	}
	return writeTrace(spans)
}

// writeOut writes one file under outDir, creating the directory.
func writeOut(name string, data []byte) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), data, 0o644)
}

// writeTrace writes spans to trace.json under outDir.
func writeTrace(spans []span) error {
	data, err := chromeTrace(spans)
	if err != nil {
		return err
	}
	return writeOut("trace.json", data)
}

// outDir is where result.json and trace.json go: bench/out, because run.sh
// (and `go run .`) start the program inside bench/.
const outDir = "out"

// commit is the checked-out commit, or "unknown" outside a git work tree
// (the driver's checkouts are not repositories).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAA runs two full untraced sets back to back and fails when the medians
// of any (workload, end-to-end metric) pair differ by more than the metric's
// bound, or when either set failed a check.
func runAA(out io.Writer, selected []workload, seed int64, seconds float64) error {
	var sets [2]*setResult
	for i := range sets {
		fmt.Fprintf(out, "# A/A set %d of 2\n", i+1)
		set, _, err := runSet(out, selected, seed, seconds, false)
		if err != nil {
			return err
		}
		sets[i] = set
	}
	var over []string
	fmt.Fprintf(out, "# A/A: first median, second median, relative difference, bound\n")
	for _, w := range selected {
		for _, s := range endToEnd {
			a, b := sets[0].Workloads[w.name].EndToEnd[s.name].Value, sets[1].Workloads[w.name].EndToEnd[s.name].Value
			diff := (b - a) / a
			verdict := "ok"
			if diff > s.bound || diff < -s.bound {
				verdict = "OVER"
				over = append(over, fmt.Sprintf("%s %s %+.1f%%", w.name, s.name, 100*diff))
			}
			fmt.Fprintf(out, "%-18s %-20s %14.6g %14.6g %+7.2f%% bound %4.1f%% %s\n", w.name, s.name, a, b, 100*diff, 100*s.bound, verdict)
		}
	}
	if err := writeSet(sets[1], nil); err != nil {
		return err
	}
	switch {
	case sets[0].failed() || sets[1].failed():
		return errors.New("a correctness check failed")
	case len(over) > 0:
		return fmt.Errorf("A/A medians differ by more than the bound: %s", strings.Join(over, "; "))
	}
	return nil
}
