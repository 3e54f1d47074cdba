package report

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/stats"
)

// chartGlyphs mark the series, in order, in a Chart.
var chartGlyphs = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Chart renders one or more time series as an ASCII line chart — the
// terminal rendering of the paper's figures. Series are drawn with distinct
// glyphs (later series win collisions), with a legend underneath. The value
// axis always includes zero and extends to the data's minimum, so negative
// values (e.g. deficits or residuals) render at their true height instead
// of being flattened onto the zero line.
func Chart(title string, width, height int, series ...*stats.TimeSeries) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	var tMax, vMax, vMin float64 // vMin <= 0 <= vMax, so zero stays on the axis
	hasData := false
	for _, ts := range series {
		for _, p := range ts.Points {
			if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
				continue
			}
			hasData = true
			if p.T > tMax {
				tMax = p.T
			}
			if p.V > vMax {
				vMax = p.V
			}
			if p.V < vMin {
				vMin = p.V
			}
		}
	}
	var sb strings.Builder
	if title != "" {
		sb.WriteString(title)
		sb.WriteByte('\n')
	}
	if !hasData || tMax <= 0 {
		sb.WriteString("(no data)\n")
		return sb.String()
	}
	if vMax-vMin <= 0 { // every finite point is exactly zero
		vMax = 1
	}
	span := vMax - vMin

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, ts := range series {
		glyph := chartGlyphs[si%len(chartGlyphs)]
		pts := make([]stats.Point, len(ts.Points))
		copy(pts, ts.Points)
		sort.Slice(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
		for col := 0; col < width; col++ {
			t := tMax * float64(col) / float64(width-1)
			v := valueAt(pts, t)
			if math.IsNaN(v) {
				continue
			}
			row := height - 1 - int(math.Round((v-vMin)/span*float64(height-1)))
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][col] = glyph
		}
	}
	for r, line := range grid {
		label := "          "
		switch r {
		case 0:
			label = fmt.Sprintf("%9.3g ", vMax)
		case height - 1:
			label = fmt.Sprintf("%9.3g ", vMin)
		}
		sb.WriteString(label)
		sb.WriteByte('|')
		sb.Write(line)
		sb.WriteByte('\n')
	}
	sb.WriteString(strings.Repeat(" ", 10))
	sb.WriteByte('+')
	sb.WriteString(strings.Repeat("-", width))
	sb.WriteByte('\n')
	sb.WriteString(strings.Repeat(" ", 11))
	axis := fmt.Sprintf("0%*s", width-1, fmt.Sprintf("%.3g", tMax))
	sb.WriteString(axis)
	sb.WriteByte('\n')
	for si, ts := range series {
		fmt.Fprintf(&sb, "  %c %s", chartGlyphs[si%len(chartGlyphs)], ts.Name)
		if (si+1)%4 == 0 || si == len(series)-1 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// valueAt returns the step-interpolated value at t, NaN before the first
// point.
func valueAt(sorted []stats.Point, t float64) float64 {
	idx := sort.Search(len(sorted), func(i int) bool { return sorted[i].T > t })
	if idx == 0 {
		return math.NaN()
	}
	return sorted[idx-1].V
}
