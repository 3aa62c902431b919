// Command mwld serves multiple-wordlength datapath allocation over HTTP
// using the v1 JSON wire schema: POST a Problem, receive a Solution.
// Solves run through an mwl.Service, so concurrent requests are bounded
// by a worker pool, repeated identical problems are served from a
// bounded LRU cache, and — with -store-dir — from a persistent result
// store that survives restarts. Request cancellation propagates into
// the solver hot loops, and shutdown cancels in-flight solves so
// clients see 499 instead of a hung connection.
//
// Endpoints:
//
//	POST /v1/solve         Problem JSON in, Solution JSON out
//	POST /v1/solve/batch   {"problems": [...]} in, {"results": [...]} out
//	POST /v1/solve/stream  {"problems": [...]} in, NDJSON out: one
//	                       index-tagged result per line, flushed as each
//	                       solve completes (completion order)
//	GET  /v1/methods       registered method names with descriptions
//	GET  /metrics          Prometheus text: solves, errors, latency
//	                       histograms, cache/store counters, pool gauges,
//	                       shard routing counters, all rendered through
//	                       internal/metrics
//	GET  /healthz          liveness probe
//
// With -peers (and -self), mwld runs as one replica of a cluster:
// problems are sharded by their canonical hash with rendezvous hashing,
// the owning replica computes and persists each solution, and the other
// replicas forward each problem to the owner and answer with its
// decoded solution, or its error under the owner's status — falling
// back to a local solve if the owner is unreachable or its answer is
// cut off. Single, batch and stream solves all take this one
// per-problem path (cluster.solver). The cluster is
// self-healing: each replica probes its peers' /healthz (-health-*) and
// routes around a down owner before burning a connection timeout;
// solved entries are replicated asynchronously to the next ranked
// replicas (-replicate), and a replica acting for a dead owner serves
// the replicated copy — fetched via the internal
// /internal/v1/solution/{key} endpoints — instead of recomputing.
// Admission control (-rate, -burst, -queue-depth) sheds excess load
// with 429/503 + Retry-After before it queues.
//
// Usage:
//
//	mwld -addr :8080 -workers 8 -cache-entries 4096 -store-dir /var/lib/mwld
//	mwld -addr :8081 -peers host1:8080,host2:8081 -self host2:8081
//	curl -s localhost:8080/v1/methods
//	tgff -n 9 | jq '{graph: ., lambda: 40, method: "dpalloc"}' \
//	    | curl -s -d @- localhost:8080/v1/solve
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	mwl "repro"
	"repro/internal/metrics"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mwld: ")
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
		maxBody      = flag.Int64("maxbody", 16<<20, "max request body bytes")
		batchMax     = flag.Int("batch-max", defaultBatchMax, "max problems per batch/stream request (<= 0 = unlimited)")
		maxNodes     = flag.Int("max-nodes", defaultMaxNodes, "max operations per problem graph (<= 0 = unlimited)")
		cacheEntries = flag.Int("cache-entries", mwl.DefaultCacheEntries, "in-memory solution cache entry cap (negative = unlimited)")
		cacheBytes   = flag.Int64("cache-bytes", 256<<20, "approximate in-memory solution cache byte cap (0 = unlimited)")
		storeDir     = flag.String("store-dir", "", "persistent result store directory (empty = no persistence)")
		peers        = flag.String("peers", "", "comma-separated replica addresses of the whole cluster, this one included (empty = single replica)")
		self         = flag.String("self", "", "this replica's address exactly as it appears in -peers")
		verify       = flag.Bool("verify", false, "validate every solution with mwl.Verify before serving; re-verify store entries on load")
		replicate    = flag.Int("replicate", 1, "copies of each solved entry across the cluster, the solver's own included (1 = no replication)")
		healthEvery  = flag.Duration("health-interval", time.Second, "gap between peer health probes in cluster mode (0 = no active health checking)")
		healthRTT    = flag.Duration("health-timeout", 500*time.Millisecond, "per-probe round-trip timeout")
		healthFails  = flag.Int("health-fails", 3, "consecutive failed probes marking a peer down")
		healthPasses = flag.Int("health-passes", 2, "consecutive successful probes marking a down peer up again")
		queueDepth   = flag.Int("queue-depth", 1024, "shed solve requests with 503 when this many solves already wait for a worker (0 = never shed)")
		rate         = flag.Float64("rate", 0, "per-client solve rate limit in requests/second (0 = unlimited)")
		burst        = flag.Int("burst", 0, "per-client burst allowance above -rate (minimum 1)")
	)
	flag.Parse()

	cl, err := newCluster(*peers, *self)
	if err != nil {
		log.Fatal(err)
	}

	opts := mwl.ServiceOptions{
		Workers:      *workers,
		CacheEntries: *cacheEntries,
		CacheBytes:   *cacheBytes,
		Verify:       *verify,
	}
	if *storeDir != "" {
		fs, err := mwl.NewFileStore(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		if n, err := fs.Len(); err == nil {
			log.Printf("result store %s: %d entries", *storeDir, n)
		}
		opts.Store = fs
	}

	var rep *replicator
	if cl != nil {
		rep = cl.attachReplicator(*replicate)
	}
	if rep != nil {
		opts.OnSolved = rep.onSolved
	}
	svc := mwl.NewServiceWith(opts)

	var hc *healthChecker
	if cl != nil && *healthEvery > 0 {
		hc = cl.attachHealth(healthConfig{
			interval:  *healthEvery,
			timeout:   *healthRTT,
			failAfter: *healthFails,
			passAfter: *healthPasses,
		})
	}

	srv := newServer(*addr, handlerConfig{
		svc:      svc,
		maxBody:  *maxBody,
		batchMax: *batchMax,
		maxNodes: *maxNodes,
		cluster:  cl,
		adm:      newAdmission(svc, cl, *queueDepth, *rate, *burst),
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	if cl != nil {
		log.Printf("cluster mode: self %s, peers %v, replicate %d, health probes every %v",
			cl.self, cl.ring.Replicas(), *replicate, *healthEvery)
	}
	log.Printf("serving on %s (methods: %v)", *addr, mwl.Methods())
	err = srv.ListenAndServe()
	if hc != nil {
		hc.close()
	}
	if rep != nil {
		rep.close()
	}
	if !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}

// defaultBatchMax is the default per-request problem-count cap of the
// batch and stream endpoints. -maxbody caps request bytes, but many
// tiny problems fit under a byte cap while still exploding the fan-out
// and the response size; the count cap closes that hole.
const defaultBatchMax = 1024

// defaultMaxNodes is the default per-problem operation cap. Solver
// effort grows superlinearly in operations, so a single huge graph can
// stall a worker for minutes while staying far under -maxbody; the node
// cap makes admitting such problems a deliberate operator choice.
const defaultMaxNodes = 10000

// handlerConfig assembles a route table: the solve service plus the
// request caps and the optional cluster routing state.
type handlerConfig struct {
	svc      *mwl.Service
	maxBody  int64
	batchMax int        // max problems per batch/stream request; <= 0 = unlimited
	maxNodes int        // max operations per problem graph; <= 0 = unlimited
	cluster  *cluster   // nil = single-replica mode
	adm      *admission // nil = no admission control
}

// newServer assembles the mwld HTTP server. Every request context
// descends from a base context that RegisterOnShutdown cancels, so
// srv.Shutdown aborts in-flight solves — they unwind through the solver
// ctx polls and answer 499 — instead of letting the shutdown grace
// period expire around still-running work.
func newServer(addr string, cfg handlerConfig) *http.Server {
	baseCtx, cancelBase := context.WithCancel(context.Background())
	srv := &http.Server{
		Addr:        addr,
		Handler:     newHandler(cfg),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
		// Bound how long a client may dribble headers/body so stalled
		// connections cannot pile up; solves themselves are not write-
		// capped, since a legitimate ILP run can hold the handler for
		// its whole (default 30-minute) budget.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	srv.RegisterOnShutdown(cancelBase)
	return srv
}

// newHandler builds the mwld route table around a solve service.
func newHandler(cfg handlerConfig) http.Handler {
	svc, maxBody, cl := cfg.svc, cfg.maxBody, cfg.cluster
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/methods", func(w http.ResponseWriter, r *http.Request) {
		type method struct {
			Name        string `json:"name"`
			Description string `json:"description,omitempty"`
		}
		var out struct {
			Methods []method `json:"methods"`
		}
		for _, name := range mwl.Methods() {
			out.Methods = append(out.Methods, method{Name: name, Description: mwl.Describe(name)})
		}
		writeJSON(w, http.StatusOK, out)
	})
	// solveFunc is the per-problem solve of every solve endpoint:
	// straight through the service on a single replica, shard-routed in
	// cluster mode, or — for requests a peer already forwarded here,
	// which must be answered locally, never bounced onward — a local
	// solve that is still read-through-aware, so a forward rerouted past
	// a dead owner serves the replicated copy instead of recomputing it.
	solveFunc := func(r *http.Request) func(context.Context, mwl.Problem) (mwl.Solution, error) {
		switch {
		case cl == nil:
			return svc.Solve
		case r.Header.Get(forwardedHeader) == "":
			return cl.solver(svc)
		default:
			return cl.localSolver(svc)
		}
	}
	// admitSize enforces the per-problem node cap; a violation is the
	// same class of refusal as an oversized batch (413 with JSON body).
	admitSize := func(w http.ResponseWriter, p mwl.Problem) bool {
		if cfg.maxNodes <= 0 {
			return true
		}
		if nodes, _ := p.Size(); nodes > cfg.maxNodes {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("problem graph of %d operations exceeds the per-problem cap of %d; shrink the graph or raise -max-nodes", nodes, cfg.maxNodes))
			return false
		}
		return true
	}
	// decodeBatch parses and caps a batch/stream request, writing the
	// error response itself when the request is unusable.
	decodeBatch := func(w http.ResponseWriter, r *http.Request) (mwl.BatchRequest, bool) {
		var req mwl.BatchRequest
		if err := decodeBody(w, r, maxBody, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return req, false
		}
		if len(req.Problems) == 0 {
			writeError(w, http.StatusBadRequest, errors.New(`batch request needs a non-empty "problems" array`))
			return req, false
		}
		if cfg.batchMax > 0 && len(req.Problems) > cfg.batchMax {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch of %d problems exceeds the per-request cap of %d; split the batch or raise -batch-max", len(req.Problems), cfg.batchMax))
			return req, false
		}
		for _, p := range req.Problems {
			if !admitSize(w, p) {
				return req, false
			}
		}
		return req, true
	}

	// writeSolve renders one solve outcome.
	writeSolve := func(w http.ResponseWriter, sol mwl.Solution, err error) {
		if err != nil {
			writeError(w, solveStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, sol)
	}
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		if !cfg.adm.admit(w, r) {
			return
		}
		var p mwl.Problem
		if err := decodeBody(w, r, maxBody, &p); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if !admitSize(w, p) {
			return
		}
		sol, err := solveFunc(r)(r.Context(), p)
		writeSolve(w, sol, err)
	})
	// The internal solution endpoints are the cluster's replication
	// plane: peers PUT copies of freshly solved entries here, and a
	// replica acting for a down owner GETs the ranked replicas' copies
	// before recomputing. Keys are canonical problem hashes.
	validKey := func(key string) bool {
		if len(key) != 64 {
			return false
		}
		for i := 0; i < len(key); i++ {
			c := key[i]
			if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
				return false
			}
		}
		return true
	}
	mux.HandleFunc("GET /internal/v1/solution/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !validKey(key) {
			writeError(w, http.StatusBadRequest, errors.New("key must be a 64-character lowercase hex problem hash"))
			return
		}
		sol, ok := svc.Peek(key)
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("no stored solution for key"))
			return
		}
		writeJSON(w, http.StatusOK, sol)
	})
	mux.HandleFunc("PUT /internal/v1/solution/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !validKey(key) {
			writeError(w, http.StatusBadRequest, errors.New("key must be a 64-character lowercase hex problem hash"))
			return
		}
		var sol mwl.Solution
		if err := decodeBody(w, r, maxBody, &sol); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if sol.Datapath == nil {
			writeError(w, http.StatusBadRequest, errors.New("replicated solution has no datapath"))
			return
		}
		svc.Admit(key, sol)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/solve/batch", func(w http.ResponseWriter, r *http.Request) {
		if !cfg.adm.admit(w, r) {
			return
		}
		req, ok := decodeBatch(w, r)
		if !ok {
			return
		}
		out := make([]mwl.BatchResult, len(req.Problems))
		svc.SolveBatchVia(r.Context(), req.Problems, solveFunc(r), func(i int, res mwl.BatchResult) {
			out[i] = res
		})
		// Per-problem failures ride inside the 200 response; only a
		// canceled request fails the batch as a whole.
		if err := r.Context().Err(); err != nil {
			writeError(w, solveStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, mwl.WireBatch(out))
	})
	mux.HandleFunc("POST /v1/solve/stream", func(w http.ResponseWriter, r *http.Request) {
		if !cfg.adm.admit(w, r) {
			return
		}
		req, ok := decodeBatch(w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		if flusher != nil {
			// Push the status line out now: a client must learn the stream
			// is live before the first (possibly slow) solve completes.
			flusher.Flush()
		}
		enc := json.NewEncoder(w)
		// SolveBatchFunc serializes the callback, so the encoder needs no
		// extra locking; each record is flushed so the client sees every
		// result the moment its solve completes, not when the batch ends.
		// A client disconnect cancels r.Context(), which stops unstarted
		// solves and aborts in-flight ones.
		svc.SolveBatchVia(r.Context(), req.Problems, solveFunc(r), func(i int, res mwl.BatchResult) {
			if err := enc.Encode(mwl.WireStream(i, res)); err != nil {
				return // client gone; ctx cancellation drains the rest
			}
			if flusher != nil {
				flusher.Flush()
			}
		})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, svc.Metrics(), mwl.PortfolioWins(), cfg.adm, cl)
	})
	return mux
}

// decodeBody decodes one JSON request body with the size cap applied,
// rejecting trailing garbage after the document.
func decodeBody(w http.ResponseWriter, r *http.Request, maxBody int64, v any) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		return fmt.Errorf("reading request: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if dec.More() {
		return errors.New("decoding request: trailing data after JSON document")
	}
	return nil
}

// writeMetrics renders /metrics in the Prometheus text exposition
// format: the Service snapshot m (per-method counters and latency
// histograms, cache/store counters, pool and queue gauges) and the
// portfolio wins, then the admission and cluster series when those are
// configured.
func writeMetrics(out io.Writer, m mwl.Metrics, wins map[string]uint64, adm *admission, cl *cluster) {
	w := metrics.NewWriter(out)
	var bounds []float64
	for _, b := range mwl.LatencyBucketBounds() {
		bounds = append(bounds, b.Seconds())
	}
	solves := make(map[string]uint64, len(m.Methods))
	errs := make(map[string]uint64, len(m.Methods))
	latency := make(map[string]metrics.HistogramSeries, len(m.Methods))
	for _, mm := range m.Methods {
		solves[mm.Method] = mm.Solves
		errs[mm.Method] = mm.Errors
		latency[mm.Method] = metrics.HistogramSeries{Buckets: mm.Buckets, Sum: mm.LatencySum.Seconds()}
	}
	w.CounterVec("mwld_solves_total", "Solver runs by method (cache hits excluded).", "method", solves)
	w.CounterVec("mwld_solve_errors_total", "Failed solver runs by method, cancellations included.", "method", errs)
	w.Histogram("mwld_solve_duration_seconds", "Solve wall-clock latency by method.", "method", bounds, latency)

	c := m.Cache
	w.Counter("mwld_cache_hits_total", "Solves served from the in-memory cache or by joining an in-flight duplicate.", c.Hits)
	w.Counter("mwld_cache_misses_total", "Solves that appointed a leader (ran the solver or hit the store).", c.Misses)
	w.Counter("mwld_cache_evictions_total", "LRU entries dropped to enforce the entry/byte caps.", c.Evictions)
	w.Counter("mwld_store_hits_total", "Persistent-store hits on cache misses.", c.StoreHits)
	w.Counter("mwld_store_misses_total", "Persistent-store misses on cache misses.", c.StoreMisses)
	w.Counter("mwld_store_put_errors_total", "Failed persistent-store write-throughs (best-effort).", c.StorePutErrors)
	w.Counter("mwld_verify_failures_total", "Solutions rejected by mwl.Verify (corrupted store entries and misbehaving solvers).", c.VerifyFailures)
	w.CounterVec("mwld_portfolio_wins_total", "Portfolio race wins by method.", "method", wins)
	w.Gauge("mwld_cache_entries", "Solutions held in the in-memory LRU.", int64(c.Entries))
	w.Gauge("mwld_cache_bytes", "Approximate in-memory LRU footprint in bytes.", c.Bytes)
	w.Gauge("mwld_inflight_solves", "Solves currently running or joinable by duplicates.", int64(c.InFlight))
	w.Gauge("mwld_workers", "Worker-pool size.", int64(m.Workers))
	w.Gauge("mwld_workers_busy", "Worker-pool slots occupied right now.", int64(m.WorkersBusy))
	w.Gauge("mwld_queue_depth", "Solves waiting for a worker slot right now.", int64(m.Queued))

	adm.writeMetrics(w)
	if cl != nil {
		cl.writeShardMetrics(w)
	}
}

// solveStatus maps solve errors onto HTTP statuses: an owner replica's
// verdict on a forwarded solve keeps the owner's status; unknown
// methods and malformed problems are the client's fault (400);
// infeasible constraints are a well-formed problem with no answer
// (422); a canceled request gets 499 in the access-log sense (the
// client is gone either way); anything else is a solver-internal fault
// (500).
func solveStatus(err error) int {
	var pe *peerError
	switch {
	case errors.As(err, &pe):
		return pe.status
	case errors.Is(err, mwl.ErrUnknownMethod), errors.Is(err, mwl.ErrInvalidProblem),
		errors.Is(err, mwl.ErrVerify):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled):
		return 499
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case mwl.IsInfeasible(err):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The status line is already on the wire; all we can do is make
		// the failure visible instead of silently truncating the body.
		log.Printf("writing %d response: %v", status, err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
