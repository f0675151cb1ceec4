package tableio

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Chart renders one or more series as an ASCII line chart — the text
// stand-in for the paper's figures. X positions are the shared sweep
// parameter; each series is drawn with its own rune.
type Chart struct {
	Title  string
	XLabel string
	YLabel string

	xs     []float64
	series []chartSeries
}

type chartSeries struct {
	name   string
	marker rune
	ys     []float64
}

// NewChart creates a chart over the given x positions.
func NewChart(title, xLabel, yLabel string, xs []float64) *Chart {
	return &Chart{
		Title:  title,
		XLabel: xLabel,
		YLabel: yLabel,
		xs:     append([]float64(nil), xs...),
	}
}

// chartHeight is the number of plot rows.
const chartHeight = 12

// markers used for successive series.
var chartMarkers = []rune{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// AddSeries appends a named series; ys must align with the chart's xs.
// It panics on length mismatch (a harness programming error).
func (c *Chart) AddSeries(name string, ys []float64) {
	if len(ys) != len(c.xs) {
		panic(fmt.Sprintf("tableio: series %q has %d points, chart has %d", name, len(ys), len(c.xs)))
	}
	marker := chartMarkers[len(c.series)%len(chartMarkers)]
	c.series = append(c.series, chartSeries{name: name, marker: marker, ys: append([]float64(nil), ys...)})
}

// WriteASCII renders the chart.
func (c *Chart) WriteASCII(w io.Writer) error {
	if len(c.xs) == 0 || len(c.series) == 0 {
		_, err := io.WriteString(w, c.Title+" (no data)\n")
		return err
	}
	// The plot is chartHeight rows and two columns per x value, at
	// least 40.
	height := chartHeight
	width := max(2*len(c.xs), 40)

	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range c.series {
		for _, y := range s.ys {
			if y < lo {
				lo = y
			}
			if y > hi {
				hi = y
			}
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	xLo, xHi := c.xs[0], c.xs[len(c.xs)-1]
	if xHi == xLo {
		xHi = xLo + 1
	}

	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", width))
	}
	for _, s := range c.series {
		for k, y := range s.ys {
			col := int(float64(width-1) * (c.xs[k] - xLo) / (xHi - xLo))
			row := int(math.Round(float64(height-1) * (hi - y) / (hi - lo)))
			grid[row][col] = s.marker
		}
	}

	var b strings.Builder
	if c.Title != "" {
		b.WriteString(c.Title)
		b.WriteByte('\n')
	}
	yLoLabel := fmt.Sprintf("%.3g", lo)
	yHiLabel := fmt.Sprintf("%.3g", hi)
	labelWidth := len(yLoLabel)
	if len(yHiLabel) > labelWidth {
		labelWidth = len(yHiLabel)
	}
	for r, row := range grid {
		label := strings.Repeat(" ", labelWidth)
		switch r {
		case 0:
			label = pad(yHiLabel, labelWidth)
		case height - 1:
			label = pad(yLoLabel, labelWidth)
		}
		b.WriteString(label)
		b.WriteString(" |")
		b.WriteString(string(row))
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat(" ", labelWidth))
	b.WriteString(" +")
	b.WriteString(strings.Repeat("-", width))
	b.WriteByte('\n')
	b.WriteString(strings.Repeat(" ", labelWidth))
	b.WriteString("  ")
	xAxis := fmt.Sprintf("%-10s%s%10s", fmt.Sprintf("%.3g", xLo), pad(c.XLabel, width-20), fmt.Sprintf("%.3g", xHi))
	b.WriteString(xAxis)
	b.WriteByte('\n')
	// Legend.
	for _, s := range c.series {
		fmt.Fprintf(&b, "  %c %s\n", s.marker, s.name)
	}
	if c.YLabel != "" {
		fmt.Fprintf(&b, "  (y: %s)\n", c.YLabel)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the ASCII form.
func (c *Chart) String() string {
	var b strings.Builder
	_ = c.WriteASCII(&b)
	return b.String()
}

// pad centers s in a field of the given width (left-aligned if the field
// is too small).
func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	left := (width - len(s)) / 2
	right := width - len(s) - left
	return strings.Repeat(" ", left) + s + strings.Repeat(" ", right)
}
