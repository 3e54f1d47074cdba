// Package report renders experiment outputs: aligned text tables for the
// terminal, CSV files for plotting, and JSON for downstream tooling.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/stats"
)

// Table is a simple aligned text/CSV table builder.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v, floats with %.4g.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case float32:
			row[i] = fmt.Sprintf("%.4g", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString("== ")
		sb.WriteString(t.Title)
		sb.WriteString(" ==\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// CSV renders the table as CSV (no quoting needed for our numeric content;
// cells containing commas are rejected at render time).
func (t *Table) CSV() (string, error) {
	var sb strings.Builder
	writeRow := func(cells []string) error {
		for i, cell := range cells {
			if strings.ContainsAny(cell, ",\n\"") {
				return fmt.Errorf("report: cell %q needs quoting; use simple values", cell)
			}
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(cell)
		}
		sb.WriteByte('\n')
		return nil
	}
	if err := writeRow(t.Headers); err != nil {
		return "", err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return "", err
		}
	}
	return sb.String(), nil
}

// Sink collects named artifacts (tables, series) and can persist them to a
// directory. A nil Sink is valid and discards everything, so experiment
// code never branches on "do we want output files".
type Sink struct {
	dir   string
	files map[string]string
}

// NewSink returns a sink writing under dir (created on demand). An empty
// dir returns the nil Sink, which discards everything.
func NewSink(dir string) *Sink {
	if dir == "" {
		return nil
	}
	return &Sink{dir: dir, files: make(map[string]string)}
}

// AddTable stores a table as <name>.csv.
func (s *Sink) AddTable(name string, t *Table) error {
	if s == nil {
		return nil
	}
	csv, err := t.CSV()
	if err != nil {
		return err
	}
	s.files[name+".csv"] = csv
	return nil
}

// AddSeries stores one or more time series merged into <name>.csv.
func (s *Sink) AddSeries(name string, series ...*stats.TimeSeries) {
	if s == nil {
		return
	}
	s.files[name+".csv"] = stats.MergeCSV(series...)
}

// AddJSON stores v marshaled as <name>.json.
func (s *Sink) AddJSON(name string, v any) error {
	if s == nil {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("report: marshal %s: %w", name, err)
	}
	s.files[name+".json"] = string(data)
	return nil
}

// Files returns the artifact names collected so far.
func (s *Sink) Files() []string {
	if s == nil {
		return nil
	}
	out := make([]string, 0, len(s.files))
	for name := range s.files {
		out = append(out, name)
	}
	return out
}

// Flush writes all collected artifacts to the sink directory.
func (s *Sink) Flush() error {
	if s == nil || len(s.files) == 0 {
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	for name, content := range s.files {
		path := filepath.Join(s.dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return fmt.Errorf("report: writing %s: %w", path, err)
		}
	}
	return nil
}
