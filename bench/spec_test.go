package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// contractFile mirrors ../BENCHMARK.json, the contract the driver reads.
type contractFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readContract(t *testing.T) contractFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contractFile
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func asContract(specs []metricSpec, bounded bool) []contractMetric {
	var out []contractMetric
	for _, s := range specs {
		m := contractMetric{Name: s.name, Unit: s.unit, Better: "lower"}
		if s.higher {
			m.Better = "higher"
		}
		if bounded {
			m.Bound = &s.bound
		}
		out = append(out, m)
	}
	return out
}

// Every workload and metric BENCHMARK.json names is one the program emits,
// with the same unit, direction and bound, and the other way round.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	c := readContract(t)
	if !reflect.DeepEqual(c.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(c.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", c.Command, c.Paths)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if want := asContract(endToEnd, true); !reflect.DeepEqual(c.EndToEnd, want) {
		t.Errorf("end_to_end differs from the program's table:\n json %s\n prog %s", toJSON(c.EndToEnd), toJSON(want))
	}
	if want := asContract(perLayer, false); !reflect.DeepEqual(c.PerLayer, want) {
		t.Errorf("per_layer differs from the program's table:\n json %s\n prog %s", toJSON(c.PerLayer), toJSON(want))
	}

	seen := map[string]bool{}
	hasSetup := false
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[s.name] {
			t.Errorf("metric %s is named twice", s.name)
		}
		seen[s.name] = true
	}
	for _, s := range endToEnd {
		if s.bound <= 0 || s.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.name, s.bound)
		}
		hasSetup = hasSetup || (s.name == "setup_s" && s.unit == "s" && !s.higher)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
}

func toJSON(v any) string {
	data, _ := json.Marshal(v)
	return string(data)
}
