package report

import (
	"math"
	"strings"
	"testing"

	"rcoal/internal/metrics"
)

func TestTableAlignment(t *testing.T) {
	tb := &Table{Title: "demo", Headers: []string{"M", "rho"}}
	tb.AddRow(1, 1.0)
	tb.AddRow(16, 0.034)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "demo") {
		t.Error("missing title")
	}
	if !strings.Contains(lines[1], "rho") || !strings.Contains(lines[2], "---") {
		t.Error("missing header or separator")
	}
	// All data lines equal length (alignment).
	if len(lines[3]) != len(lines[4]) {
		t.Errorf("rows unaligned: %q vs %q", lines[3], lines[4])
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{1.23456, "1.235"},
		{math.Inf(1), "inf"},
		{math.Inf(-1), "-inf"},
		{math.NaN(), "-"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.v, 3); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestBarScaling(t *testing.T) {
	full := Bar("x", 10, 10, 20)
	if !strings.Contains(full, strings.Repeat("#", 20)) {
		t.Errorf("full bar wrong: %q", full)
	}
	half := Bar("x", 5, 10, 20)
	if !strings.Contains(half, strings.Repeat("#", 10)+" ") {
		t.Errorf("half bar wrong: %q", half)
	}
	empty := Bar("x", 0, 10, 20)
	if strings.Contains(empty, "#") {
		t.Errorf("empty bar has fill: %q", empty)
	}
	// Degenerate inputs must not panic or overflow.
	_ = Bar("x", 50, 10, 20)
	_ = Bar("x", math.Inf(1), 10, 20)
	_ = Bar("x", 1, 0, 0)
}

func TestHistogramSkipsEmpty(t *testing.T) {
	out := Histogram("h", []int{0, 5, 0, 2}, 10)
	if strings.Contains(out, "size  0") || strings.Contains(out, "size  2") {
		t.Errorf("empty buckets rendered:\n%s", out)
	}
	if !strings.Contains(out, "size  1") || !strings.Contains(out, "size  3") {
		t.Errorf("non-empty buckets missing:\n%s", out)
	}
}

func TestMetricsHistogram(t *testing.T) {
	h := metrics.HistogramValue{
		Bounds: []int64{1, 2, 4, 8},
		Counts: []uint64{10, 0, 5, 2, 1}, // 1, 2, 3-4, 5-8, >8
		Count:  18, Sum: 40, Min: 1, Max: 12, Mean: 40.0 / 18,
	}
	out := MetricsHistogram("tx per instr", h, 20)
	if !strings.HasPrefix(out, "tx per instr\n") {
		t.Errorf("missing title:\n%s", out)
	}
	for _, want := range []string{"1 ", "3-4", "5-8", "> 8", "n=18", "mean=2.22", "min=1", "max=12"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The empty bucket (value 2) is skipped.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "2 ") {
			t.Errorf("empty bucket rendered: %q", line)
		}
	}
}
