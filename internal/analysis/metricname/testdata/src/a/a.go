package a

import "repro/internal/metrics"

const requests = "mwld_requests_total"

// Writer calls in the approved shapes; plain literals that merely
// mention a metric name are not exposition.
func good(w metrics.Writer) string {
	w.Counter(requests, "h", 1)
	w.Gauge("mwld_queue_depth", "h", 1)
	w.Histogram("mwld_solve_duration_seconds", "h", "method", nil, nil)
	w.CounterVec("mwld_solves_total", "h", "method", nil)
	w.GaugeVec("mwld_peer_up", "h", "peer", nil)
	return "mwld_queue_depth is scraped as mwld_queue_depth{}"
}

// Convention violations.
func bad(w metrics.Writer, name string) {
	w.Counter("mwld_Requests_total", "h", 1)            // want `not of the form`
	w.Counter("mwld_cache-hits_total", "h", 1)          // want `not of the form`
	w.Gauge("mwld_latency_ms", "h", 1)                  // want `uses suffix _ms`
	w.Gauge("mwld_solve_totals", "h", 1)                // want `uses suffix _totals`
	w.Counter(name, "h", 1)                             // want `must be a constant string`
	w.Counter("mwld_queue_len", "h", 1)                 // want `must end in _total`
	w.Histogram("mwld_solves_fast", "h", "m", nil, nil) // want `must carry a base unit suffix`
	w.Gauge("mwld_live_total", "h", 1)                  // want `must not end in _total`
	w.CounterVec("mwld_requests_total", "h", "m", nil)  // want `written more than once`
}

const handWritten = "# TYPE mwld_requests_total counter\n" // want `hand-written metric exposition`
