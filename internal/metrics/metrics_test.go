package metrics_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestHistogramSumExact: a sum far below a millisecond is written in a
// form that parses back to the same float, not rounded to a fixed
// number of decimals.
func TestHistogramSumExact(t *testing.T) {
	const sum = 12.5e-6
	var buf bytes.Buffer
	metrics.NewWriter(&buf).Histogram("x_seconds", "h", "m", []float64{0.001},
		map[string]metrics.HistogramSeries{"a": {Buckets: []uint64{1, 1}, Sum: sum}})
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, `x_seconds_sum{m="a"} `); ok {
			got, err := strconv.ParseFloat(v, 64)
			if err != nil || got != sum {
				t.Fatalf("sum written as %q, parses to (%v, %v), want %v", v, got, err, sum)
			}
			return
		}
	}
	t.Fatalf("no _sum series in:\n%s", buf.String())
}

// TestVecLabelsEscapedAndEmptyOmitted: label values are escaped the
// exposition format's way and written in label order, and a vector
// with no samples writes nothing at all.
func TestVecLabelsEscapedAndEmptyOmitted(t *testing.T) {
	var buf bytes.Buffer
	w := metrics.NewWriter(&buf)
	w.CounterVec("x_total", "h", "l", map[string]uint64{"b\"\\\n": 2, "a": 1})
	w.GaugeVec("y", "h", "l", nil)
	want := "# HELP x_total h\n# TYPE x_total counter\n" +
		"x_total{l=\"a\"} 1\n" +
		"x_total{l=\"b\\\"\\\\\\n\"} 2\n"
	if buf.String() != want {
		t.Fatalf("got\n%s\nwant\n%s", buf.String(), want)
	}
}
