package main

import (
	"bytes"
	"os"
	"testing"
	"time"

	mwl "repro"
)

// goldenState is a fixed synthetic metrics state in which every family
// on /metrics is present and each vector family has two labels.
func goldenState(t *testing.T) (mwl.Metrics, map[string]uint64, *admission, *cluster) {
	t.Helper()
	m := mwl.Metrics{
		Methods: []mwl.MethodMetrics{
			{Method: "dpalloc", Solves: 10, Errors: 1, LatencySum: 1500 * time.Millisecond,
				Buckets: []uint64{1, 3, 5, 6, 7, 8, 9, 9, 10, 10}},
			{Method: "twostage", Solves: 4, Errors: 0, LatencySum: 250 * time.Millisecond,
				Buckets: []uint64{0, 1, 2, 4, 4, 4, 4, 4, 4, 4}},
		},
		Cache: mwl.CacheStats{
			Entries: 11, Bytes: 123456, InFlight: 2,
			Hits: 21, Misses: 13, Evictions: 3,
			StoreHits: 5, StoreMisses: 8, StorePutErrors: 1, VerifyFailures: 2,
		},
		Workers:     4,
		WorkersBusy: 3,
		Queued:      6,
	}
	wins := map[string]uint64{"twostage": 2, "dpalloc": 5}

	adm := &admission{}
	adm.shed.Store(4)
	adm.limited.Store(7)

	cl, err := newCluster("http://a:1,http://b:2,http://c:3", "http://a:1")
	if err != nil {
		t.Fatal(err)
	}
	cl.owned.Store(31)
	cl.forwarded.Store(17)
	cl.fallback.Store(2)
	cl.rerouted.Store(3)
	cl.relayErrors.Store(1)
	cl.readHits.Store(6)
	cl.readMisses.Store(4)

	h := newHealthChecker([]string{"http://c:3", "http://b:2"}, healthConfig{})
	*h.peers["http://b:2"] = peerState{up: true, probes: 40, failures: 2, transitions: 2}
	*h.peers["http://c:3"] = peerState{up: false, probes: 38, failures: 9, transitions: 1}
	cl.health = h

	rep := &replicator{c: cl, factor: 2, jobs: make(chan repJob, 4)}
	rep.jobs <- repJob{key: "k1"}
	rep.jobs <- repJob{key: "k2"}
	rep.sent.Store(12)
	rep.errs.Store(1)
	rep.dropped.Store(3)
	cl.rep = rep
	return m, wins, adm, cl
}

// TestMetricsGolden pins the whole /metrics exposition of goldenState,
// byte for byte, to testdata/metrics.golden.
func TestMetricsGolden(t *testing.T) {
	m, wins, adm, cl := goldenState(t)
	var buf bytes.Buffer
	writeMetrics(&buf, m, wins, adm, cl)
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("/metrics differs from testdata/metrics.golden:\n--- got\n%s\n--- want\n%s", got, want)
	}
}
