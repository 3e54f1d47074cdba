package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunWritesSlowestTraces runs the example end to end at a small scale:
// the swarm completes, the slowest trace prints as a span tree that crosses
// the wire, and the Chrome trace-event file is written.
func TestRunWritesSlowestTraces(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	var sb strings.Builder
	if err := run(&sb, 4, 8, 1, 1, out); err != nil {
		t.Fatal(err)
	}
	report := sb.String()
	for _, want := range []string{"download complete", "1 slowest piece traces", "wire.send", "wrote " + out} {
		if !strings.Contains(report, want) {
			t.Errorf("output missing %q:\n%s", want, report)
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"traceEvents"`) {
		t.Errorf("%s is not a Chrome trace-event file:\n%.200s", out, data)
	}
}

func TestRunRejectsOneNode(t *testing.T) {
	if err := run(&strings.Builder{}, 1, 8, 1, 1, ""); err == nil {
		t.Fatal("a one-node swarm was accepted")
	}
}
