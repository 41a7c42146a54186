// Package plot renders experiment output in two forms: CSV (for external
// plotting of the reproduced figures) and quick ASCII charts (so `hetlb
// figures` shows the shape of each figure directly in the terminal, which is
// how the "does the reproduction match the paper" judgement is made).
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one named curve.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// NewSeries builds a series, panicking on length mismatch (a programming
// error in an experiment driver).
func NewSeries(name string, x, y []float64) Series {
	if len(x) != len(y) {
		panic(fmt.Sprintf("plot: series %q has %d x values but %d y values", name, len(x), len(y)))
	}
	return Series{Name: name, X: x, Y: y}
}

// WriteCSV emits the series as tidy CSV: series,x,y per row.
func WriteCSV(w io.Writer, series []Series) error {
	if _, err := fmt.Fprintln(w, "series,x,y"); err != nil {
		return err
	}
	for _, s := range series {
		for k := range s.X {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", csvEscape(s.Name), s.X[k], s.Y[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// markers distinguish series in ASCII charts.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '~'}

// ASCII renders the series as a width×height character chart with simple
// axes and a legend. Points are plotted with per-series markers; collisions
// keep the earlier series' marker.
func ASCII(title string, series []Series, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range series {
		for k := range s.X {
			points++
			minX, maxX = math.Min(minX, s.X[k]), math.Max(maxX, s.X[k])
			minY, maxY = math.Min(minY, s.Y[k]), math.Max(maxY, s.Y[k])
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if points == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		mk := markers[si%len(markers)]
		for k := range s.X {
			c := int((s.X[k] - minX) / (maxX - minX) * float64(width-1))
			r := height - 1 - int((s.Y[k]-minY)/(maxY-minY)*float64(height-1))
			if grid[r][c] == ' ' {
				grid[r][c] = mk
			}
		}
	}
	for r, row := range grid {
		label := "        "
		if r == 0 {
			label = fmt.Sprintf("%8.3g", maxY)
		} else if r == height-1 {
			label = fmt.Sprintf("%8.3g", minY)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s %s\n", strings.Repeat(" ", 9), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s %-*.4g%*.4g\n", strings.Repeat(" ", 9), width/2, minX, width-width/2, maxX)
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

// Table renders rows as a fixed-width text table; headers define the
// columns.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for c, h := range headers {
		widths[c] = len(h)
	}
	for _, row := range rows {
		for c, cell := range row {
			if c < len(widths) && len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for c := range headers {
			cell := ""
			if c < len(cells) {
				cell = cells[c]
			}
			fmt.Fprintf(&b, "%-*s", widths[c]+2, cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for c := range sep {
		sep[c] = strings.Repeat("-", widths[c])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
