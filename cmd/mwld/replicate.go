package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	mwl "repro"
	"repro/internal/metrics"
)

// repJob is one solved entry queued for replication.
type repJob struct {
	key string
	sol mwl.Solution
}

// replicator pushes freshly solved entries to the next ranked replicas
// asynchronously, so a replica dying takes down at most the entries
// solved in the last moments before its copies landed. Jobs are queued
// on a bounded channel and drained by a single goroutine; when the
// queue is full the job is dropped and counted — replication is
// best-effort durability on top of a system that can always recompute,
// and must never apply backpressure to the solve path.
type replicator struct {
	c      *cluster
	factor int // total copies per entry, including the solver's own

	jobs chan repJob
	stop chan struct{}
	done sync.WaitGroup

	sent    atomic.Uint64 // successful replica writes
	errs    atomic.Uint64 // failed replica writes
	dropped atomic.Uint64 // jobs discarded because the queue was full
}

// attachReplicator wires an asynchronous replicator with the given copy
// factor into the cluster and returns it, or nil when factor <= 1 (one
// copy means no replication) or the ring is a single replica. The
// returned replicator's onSolved goes into ServiceOptions.OnSolved;
// call close() on shutdown.
func (c *cluster) attachReplicator(factor int) *replicator {
	if factor <= 1 || c.ring.Len() < 2 {
		return nil
	}
	r := &replicator{
		c:      c,
		factor: factor,
		jobs:   make(chan repJob, 1024),
		stop:   make(chan struct{}),
	}
	c.rep = r
	r.done.Add(1)
	go r.drain()
	return r
}

// onSolved enqueues a freshly solved entry for replication without ever
// blocking the solve that produced it.
func (r *replicator) onSolved(key string, sol mwl.Solution) {
	select {
	case r.jobs <- repJob{key: key, sol: sol}:
	default:
		r.dropped.Add(1)
	}
}

// pending reports the queue depth — the replication lag gauge.
func (r *replicator) pending() int { return len(r.jobs) }

// close stops the drain loop. Queued jobs are abandoned: the entries
// are already solved and persisted locally, and a peer that needs them
// read-throughs or recomputes.
func (r *replicator) close() {
	close(r.stop)
	r.done.Wait()
}

func (r *replicator) drain() {
	defer r.done.Done()
	for {
		select {
		case <-r.stop:
			return
		case job := <-r.jobs:
			r.replicate(job)
		}
	}
}

// replicate writes one entry to the first factor-1 live ranked replicas
// other than this one. Targeting the top of the rank order means the
// read-through a failover performs looks exactly where the copies were
// written; skipping down peers trades a copy for not stalling the queue
// behind a dead host.
func (r *replicator) replicate(job repJob) {
	n := 0
	for _, addr := range r.c.ring.Rank(job.key) {
		if n >= r.factor-1 {
			break
		}
		if addr == r.c.self {
			continue
		}
		if !r.c.alive(addr) {
			continue
		}
		if err := r.put(addr, job.key, job.sol); err != nil {
			r.errs.Add(1)
			log.Printf("replicate %s to %s: %v", job.key[:8], addr, err)
		} else {
			r.sent.Add(1)
		}
		n++
	}
}

// put stores one solution on one peer via the internal fetch endpoint.
func (r *replicator) put(addr, key string, sol mwl.Solution) error {
	blob, err := json.Marshal(sol)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "PUT", addr+"/internal/v1/solution/"+key, bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.c.client.Do(req)
	if err != nil {
		r.c.observeFailure(addr)
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// writeMetrics appends the replication series to the Prometheus
// exposition.
func (r *replicator) writeMetrics(w metrics.Writer) {
	w.Gauge("mwld_replication_pending", "Solved entries queued for replication but not yet written to peers.", int64(r.pending()))
	w.Counter("mwld_replicate_sent_total", "Successful replica writes of solved entries to peers.", r.sent.Load())
	w.Counter("mwld_replicate_errors_total", "Failed replica writes of solved entries to peers.", r.errs.Load())
	w.Counter("mwld_replicate_dropped_total", "Solved entries not replicated because the replication queue was full.", r.dropped.Load())
}
