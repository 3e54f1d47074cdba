package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestTableText(t *testing.T) {
	tbl := NewTable("Demo", "Algorithm", "E")
	tbl.AddRow("T-Chain", 0.123456)
	tbl.AddRow("Altruism", 42)
	var sb strings.Builder
	if err := tbl.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== Demo ==", "Algorithm", "T-Chain", "0.1235", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow(1, 2.5)
	csv, err := tbl.CSV()
	if err != nil {
		t.Fatal(err)
	}
	if csv != "a,b\n1,2.5\n" {
		t.Errorf("csv = %q", csv)
	}
	bad := NewTable("", "a")
	bad.AddRow("has,comma")
	if _, err := bad.CSV(); err == nil {
		t.Error("comma cell accepted")
	}
}

func TestSinkFlush(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	s := NewSink(dir)

	tbl := NewTable("", "x")
	tbl.AddRow(1)
	if err := s.AddTable("table1", tbl); err != nil {
		t.Fatal(err)
	}

	ts := stats.NewTimeSeries("m")
	ts.Add(0, 1)
	s.AddSeries("series1", ts)

	if err := s.AddJSON("meta", map[string]int{"n": 3}); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Files()); got != 3 {
		t.Fatalf("%d files collected", got)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1.csv", "series1.csv", "meta.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"n\": 3") {
		t.Errorf("meta.json = %s", data)
	}
}

func TestNilSinkIsSafe(t *testing.T) {
	var s *Sink
	if err := s.AddTable("x", NewTable("", "a")); err != nil {
		t.Error(err)
	}
	s.AddSeries("y", stats.NewTimeSeries("m"))
	if err := s.AddJSON("z", 1); err != nil {
		t.Error(err)
	}
	if s.Files() != nil {
		t.Error("nil sink has files")
	}
	if err := s.Flush(); err != nil {
		t.Error(err)
	}
}

func TestEmptySinkFlushNoDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "never")
	s := NewSink(dir)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Error("empty sink created directory")
	}
}

func TestNewSinkEmptyDirDiscards(t *testing.T) {
	if s := NewSink(""); s != nil {
		t.Fatalf("NewSink(\"\") = %+v, want the nil (discarding) sink", s)
	}
}

func TestChartRendersSeries(t *testing.T) {
	a := stats.NewTimeSeries("rising")
	b := stats.NewTimeSeries("flat")
	for i := 0; i <= 10; i++ {
		a.Add(float64(i), float64(i)/10)
		b.Add(float64(i), 0.5)
	}
	out := Chart("Demo chart", 40, 8, a, b)
	for _, want := range []string{"Demo chart", "rising", "flat", "*", "o", "+---"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 10 {
		t.Errorf("chart too short: %d lines", len(lines))
	}
}

func TestChartNegativeValues(t *testing.T) {
	// A series dipping to -4 must render below the zero line, with the
	// bottom axis label showing the true minimum rather than 0.
	ts := stats.NewTimeSeries("deficit")
	ts.Add(0, 2)
	ts.Add(5, -4)
	ts.Add(10, -4)
	out := Chart("", 40, 8, ts)
	if !strings.Contains(out, "-4") {
		t.Errorf("bottom label missing the negative minimum:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	top, bottom := -1, -1
	for i, line := range lines {
		if strings.Contains(line, "*") {
			if top == -1 {
				top = i
			}
			bottom = i
		}
	}
	if top == bottom {
		t.Errorf("negative values flattened onto one row:\n%s", out)
	}
}

func TestChartNonNegativeUnchanged(t *testing.T) {
	// Charts of non-negative data must keep their original zero floor.
	ts := stats.NewTimeSeries("frac")
	ts.Add(0, 0)
	ts.Add(10, 1)
	out := Chart("", 40, 8, ts)
	if !strings.Contains(out, "        0 |") {
		t.Errorf("zero floor label changed:\n%s", out)
	}
}

func TestChartEmptyAndDegenerate(t *testing.T) {
	if out := Chart("t", 40, 8); !strings.Contains(out, "no data") {
		t.Errorf("empty chart = %q", out)
	}
	// Single point at t=0 has tMax = 0: no drawable x-range.
	ts := stats.NewTimeSeries("x")
	ts.Add(0, 1)
	if out := Chart("", 40, 8, ts); !strings.Contains(out, "no data") {
		t.Errorf("degenerate chart = %q", out)
	}
	// Tiny dimensions are clamped, not panicking.
	ts2 := stats.NewTimeSeries("y")
	ts2.Add(0, 1)
	ts2.Add(10, 2)
	if out := Chart("", 1, 1, ts2); out == "" {
		t.Error("clamped chart empty")
	}
}
