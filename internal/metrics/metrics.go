// Package metrics writes the Prometheus text exposition format, version
// 0.0.4. A Writer is stateless: callers keep their own counters and
// hand the current values to one call per metric family, and the
// Writer renders the family's HELP and TYPE headers, its label quoting,
// its number formatting and, for histograms, the _bucket/_sum/_count
// series.
//
// Vector families take their samples as a map from label value to
// value and write them in label order. A vector family with no samples
// writes nothing, headers included.
package metrics

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// Writer renders metric families to an io.Writer. Write errors are
// dropped: a scrape that loses its connection has nobody to tell.
type Writer struct{ w io.Writer }

// NewWriter returns a Writer that renders to w.
func NewWriter(w io.Writer) Writer { return Writer{w} }

// HistogramSeries is one labelled series of a histogram family.
// Buckets holds cumulative counts, one per finite bound plus a final
// +Inf count, which is also the series' _count.
type HistogramSeries struct {
	Buckets []uint64
	Sum     float64
}

// Counter writes an unlabelled counter.
func (w Writer) Counter(name, help string, v uint64) {
	w.header(name, help, "counter")
	fmt.Fprintf(w.w, "%s %d\n", name, v)
}

// Gauge writes an unlabelled gauge.
func (w Writer) Gauge(name, help string, v int64) {
	w.header(name, help, "gauge")
	fmt.Fprintf(w.w, "%s %d\n", name, v)
}

// CounterVec writes a counter family with one sample per value of label.
func (w Writer) CounterVec(name, help, label string, vs map[string]uint64) {
	writeVec(w, name, help, "counter", label, vs)
}

// GaugeVec writes a gauge family with one sample per value of label.
func (w Writer) GaugeVec(name, help, label string, vs map[string]int64) {
	writeVec(w, name, help, "gauge", label, vs)
}

func writeVec[V uint64 | int64](w Writer, name, help, kind, label string, vs map[string]V) {
	if len(vs) == 0 {
		return
	}
	w.header(name, help, kind)
	for _, lv := range slices.Sorted(maps.Keys(vs)) {
		fmt.Fprintf(w.w, "%s{%s=%s} %d\n", name, label, quote(lv), vs[lv])
	}
}

// Histogram writes a histogram family with one series per value of
// label. bounds are the finite bucket upper bounds, smallest first;
// every series carries len(bounds)+1 cumulative bucket counts.
func (w Writer) Histogram(name, help, label string, bounds []float64, series map[string]HistogramSeries) {
	if len(series) == 0 {
		return
	}
	w.header(name, help, "histogram")
	for _, lv := range slices.Sorted(maps.Keys(series)) {
		s, l := series[lv], label+"="+quote(lv)
		for i, le := range bounds {
			fmt.Fprintf(w.w, "%s_bucket{%s,le=%s} %d\n", name, l, quote(formatFloat(le)), s.Buckets[i])
		}
		total := s.Buckets[len(bounds)]
		fmt.Fprintf(w.w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, l, total)
		fmt.Fprintf(w.w, "%s_sum{%s} %s\n", name, l, formatFloat(s.Sum))
		fmt.Fprintf(w.w, "%s_count{%s} %d\n", name, l, total)
	}
}

func (w Writer) header(name, help, kind string) {
	fmt.Fprintf(w.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// formatFloat formats a sample value or bucket bound exactly: the
// shortest decimal that parses back to v, in exponent form below 1e-4
// and from 1e6 on, which the exposition format accepts.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// quote renders a label value with the exposition format's escapes.
func quote(v string) string { return `"` + labelEscaper.Replace(v) + `"` }
