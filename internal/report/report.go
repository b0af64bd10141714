// Package report renders experiment results as aligned ASCII tables
// and bar charts for the command-line tools, so every figure and table
// of the paper has a human-readable terminal rendition.
package report

import (
	"fmt"
	"math"
	"strings"

	"rcoal/internal/metrics"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = FormatFloat(v, 3)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with column alignment.
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	if len(t.Headers) > 0 {
		line(t.Headers)
		sep := make([]string, cols)
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		line(sep)
	}
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// FormatFloat formats v with the given precision, rendering infinities
// as the paper's ∞ symbol and NaN as "-".
func FormatFloat(v float64, prec int) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsNaN(v):
		return "-"
	}
	return fmt.Sprintf("%.*f", prec, v)
}

// Bar renders one labeled horizontal bar scaled to max.
func Bar(label string, value, max float64, width int) string {
	if width <= 0 {
		width = 40
	}
	n := 0
	if max > 0 && !math.IsNaN(value) && !math.IsInf(value, 0) {
		n = int(value / max * float64(width))
		if n > width {
			n = width
		}
		if n < 0 {
			n = 0
		}
	}
	return fmt.Sprintf("%-18s |%s%s| %s", label,
		strings.Repeat("#", n), strings.Repeat(" ", width-n), FormatFloat(value, 3))
}

// MetricsHistogram renders a simulator metrics histogram snapshot:
// one bar per non-empty bucket labeled with its inclusive value range,
// followed by a count/mean/min/max summary line.
func MetricsHistogram(title string, h metrics.HistogramValue, width int) string {
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	var max uint64
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	lo := int64(0)
	for i, c := range h.Counts {
		var label string
		switch {
		case i == len(h.Bounds): // implicit overflow bucket
			label = fmt.Sprintf("> %d", h.Bounds[len(h.Bounds)-1])
		case lo == h.Bounds[i]:
			label = fmt.Sprintf("%d", lo)
		default:
			label = fmt.Sprintf("%d-%d", lo, h.Bounds[i])
		}
		if i < len(h.Bounds) {
			lo = h.Bounds[i] + 1
		}
		if c == 0 {
			continue
		}
		b.WriteString(Bar(label, float64(c), float64(max), width))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  n=%d mean=%s min=%d max=%d\n", h.Count, FormatFloat(h.Mean, 2), h.Min, h.Max)
	return b.String()
}

// Histogram renders integer-bucket counts (used for the Figure 9
// subwarp-size distributions).
func Histogram(title string, buckets []int, width int) string {
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	max := 0
	for _, c := range buckets {
		if c > max {
			max = c
		}
	}
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		b.WriteString(Bar(fmt.Sprintf("size %2d", i), float64(c), float64(max), width))
		b.WriteByte('\n')
	}
	return b.String()
}
