package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	mwl "repro"
	"repro/internal/metrics"
	"repro/internal/shard"
)

// forwardedHeader marks a request relayed by a peer replica. A replica
// receiving it always solves locally: if peer lists ever disagree, a
// problem is answered by whichever replica the forward landed on rather
// than bouncing between replicas that each believe the other owns it.
const forwardedHeader = "X-Mwld-Forwarded"

// defaultRelayLimit caps how much of an owner's response body the
// forwarder will buffer before classifying the forward as failed.
const defaultRelayLimit = 64 << 20

// cluster is mwld's horizontal scale-out mode: problems are owned by
// exactly one replica — rendezvous hashing of Problem.Hash() over the
// shared peer list — so each problem is computed (and cached, and
// persisted) once cluster-wide. The owner solves locally; every other
// replica forwards the solve to the first live replica in the key's
// rank order and answers with its result, falling back to a local solve
// (preceded by a read-through of the ranked replicas' stores) when no
// owner is reachable.
type cluster struct {
	ring   *shard.Ring
	self   string
	client *http.Client

	health *healthChecker // nil = no active health checking: all peers assumed up
	rep    *replicator    // nil = no write-through replication

	relayLimit   int64         // max owner response bytes a forwarder buffers
	fetchTimeout time.Duration // per-peer budget of a replication read-through

	// Counters surfaced on /metrics.
	owned       atomic.Uint64 // requests solved locally as the key's owner
	forwarded   atomic.Uint64 // requests proxied to their owner
	fallback    atomic.Uint64 // owner unreachable: solved locally instead
	rerouted    atomic.Uint64 // requests routed past a down owner without burning a timeout
	relayErrors atomic.Uint64 // forwards whose owner response body failed mid-read
	readHits    atomic.Uint64 // fallback solves served from a ranked peer's store
	readMisses  atomic.Uint64 // fallback read-throughs that found no copy and recomputed
}

// newCluster validates the peer list and returns the routing state, or
// nil when peers is empty (single-replica mode).
func newCluster(peers, self string) (*cluster, error) {
	if strings.TrimSpace(peers) == "" {
		if strings.TrimSpace(self) != "" {
			return nil, errors.New("-self given without -peers")
		}
		return nil, nil
	}
	list := strings.Split(peers, ",")
	seen := make(map[string]bool, len(list))
	for i, p := range list {
		list[i] = normalizeAddr(p)
		if list[i] == "" {
			continue
		}
		// Rejecting duplicates here (rather than silently deduplicating
		// like shard.New) catches the config error that matters: the
		// same host listed twice, usually via case or scheme variants,
		// which would silently shrink the cluster one replica below
		// what the operator believes is running.
		if seen[list[i]] {
			return nil, fmt.Errorf("-peers: duplicate replica %q after normalization", list[i])
		}
		seen[list[i]] = true
	}
	ring, err := shard.New(list)
	if err != nil {
		return nil, fmt.Errorf("-peers: %w", err)
	}
	self = normalizeAddr(self)
	if self == "" {
		return nil, errors.New("-peers requires -self (this replica's address as it appears in -peers)")
	}
	if !ring.Contains(self) {
		return nil, fmt.Errorf("-self %q is not in -peers %v", self, ring.Replicas())
	}
	return &cluster{
		ring:         ring,
		self:         self,
		relayLimit:   defaultRelayLimit,
		fetchTimeout: 2 * time.Second,
		client: &http.Client{
			// Connections to a dead peer must fail fast enough for the
			// local fallback to still answer within the client's patience;
			// the solve itself is governed by the request context.
			Transport: &http.Transport{
				MaxIdleConnsPerHost:   4,
				IdleConnTimeout:       2 * time.Minute,
				ResponseHeaderTimeout: 0,
			},
		},
	}, nil
}

// normalizeAddr trims a peer address, defaults the scheme to http, and
// lowercases the scheme and host — so "-peers host1:8080,host2:8080"
// works as written, and "Host1:8080" on one replica and "host1:8080" on
// another rendezvous-hash to the same owner instead of silently
// splitting every key's ownership across the cluster.
func normalizeAddr(a string) string {
	a = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(a), "/"))
	if a == "" {
		return ""
	}
	if !strings.Contains(a, "://") {
		a = "http://" + a
	}
	scheme, rest, _ := strings.Cut(a, "://")
	host, path, hasPath := strings.Cut(rest, "/")
	a = strings.ToLower(scheme) + "://" + strings.ToLower(host)
	if hasPath {
		a += "/" + path
	}
	return a
}

// owner returns the replica owning p, or "" when the problem cannot be
// hashed (and so has no owner — it is solved wherever it lands).
func (c *cluster) owner(p mwl.Problem) string {
	key, err := p.Hash()
	if err != nil {
		return ""
	}
	return c.ring.Owner(key)
}

// fromPeer reports whether r was forwarded by another replica of this
// cluster: its forwarded header normalizes to a configured peer other
// than self. Always false on a single replica (nil cluster).
func (c *cluster) fromPeer(r *http.Request) bool {
	if c == nil {
		return false
	}
	from := normalizeAddr(r.Header.Get(forwardedHeader))
	return from != c.self && c.ring.Contains(from)
}

// alive reports whether a replica is believed reachable. Without a
// health checker every peer is assumed up, which reproduces the static
// relay-or-fallback behaviour; self is up by definition.
func (c *cluster) alive(addr string) bool {
	return addr == c.self || c.health == nil || c.health.up(addr)
}

// target returns the replica that should answer p right now: the first
// live replica in the key's rank order — the true owner when it is up,
// otherwise the deterministic failover target — or "" when the problem
// has no canonical hash. Self always qualifies, so a fully partitioned
// replica degrades to solving everything locally.
func (c *cluster) target(p mwl.Problem) string {
	key, err := p.Hash()
	if err != nil {
		return ""
	}
	return c.ring.First(key, c.alive)
}

// serveLocal answers p on this replica. When this replica is not the
// problem's true owner (it is acting for a down owner, or a forward
// landed here), the ranked replicas' stores are read through before any
// local compute: first the local cache/store, then the live peers in
// rank order via the internal fetch endpoint — so a replica dying does
// not trigger a recomputation storm for the keys it already solved and
// replicated.
func (c *cluster) serveLocal(ctx context.Context, svc *mwl.Service, p mwl.Problem, trueOwner string) (mwl.Solution, error) {
	if trueOwner != "" && trueOwner != c.self {
		if key, err := p.Hash(); err == nil {
			if sol, ok := svc.Peek(key); ok {
				sol.Cached = true
				return sol, nil
			}
			if sol, ok := c.readThrough(ctx, key); ok {
				c.readHits.Add(1)
				svc.Admit(key, sol)
				sol.Cached = true
				return sol, nil
			}
			c.readMisses.Add(1)
		}
	}
	return svc.Solve(ctx, p)
}

// readThrough asks every live ranked peer, owner-first, for its stored
// copy of key. The first hit wins; transport failures and 404s just
// move on to the next candidate.
func (c *cluster) readThrough(ctx context.Context, key string) (mwl.Solution, bool) {
	for _, addr := range c.ring.Rank(key) {
		if addr == c.self || !c.alive(addr) {
			continue
		}
		if sol, ok := c.fetch(ctx, addr, key); ok {
			return sol, true
		}
		if ctx.Err() != nil {
			break
		}
	}
	return mwl.Solution{}, false
}

// fetch retrieves one peer's stored solution for key via the internal
// fetch endpoint, bounded by fetchTimeout so a slow peer cannot stall
// the fallback path it exists to accelerate.
func (c *cluster) fetch(ctx context.Context, addr, key string) (mwl.Solution, bool) {
	fctx, cancel := context.WithTimeout(ctx, c.fetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, "GET", addr+"/internal/v1/solution/"+key, nil)
	if err != nil {
		return mwl.Solution{}, false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.observeFailure(addr)
		return mwl.Solution{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return mwl.Solution{}, false
	}
	var sol mwl.Solution
	if err := json.NewDecoder(io.LimitReader(resp.Body, c.relayLimit)).Decode(&sol); err != nil || sol.Datapath == nil {
		return mwl.Solution{}, false
	}
	return sol, true
}

// observeFailure feeds a transport failure seen on the request path into
// the health state, so a peer that died between probes is marked down by
// the traffic that discovers it rather than only by the next probe.
func (c *cluster) observeFailure(addr string) {
	if c.health != nil {
		c.health.observe(addr, false)
	}
}

// solver returns the per-problem solve function of routed requests:
// problems are answered by the first live ranked replica — locally when
// that is us, otherwise forwarded with a read-through-then-recompute
// fallback. Passed to Service.SolveBatchVia, which bounds the fan-out
// either way.
func (c *cluster) solver(svc *mwl.Service) func(context.Context, mwl.Problem) (mwl.Solution, error) {
	return func(ctx context.Context, p mwl.Problem) (mwl.Solution, error) {
		trueOwner, target := c.owner(p), c.target(p)
		if target != trueOwner {
			c.rerouted.Add(1)
		}
		switch {
		case target == "": // no canonical hash, so no owner: solved where it lands
		case target == c.self && trueOwner == c.self:
			c.owned.Add(1)
		case target == c.self:
			c.fallback.Add(1)
		default:
			sol, err, relayed := c.forwardSolve(ctx, target, p)
			if relayed {
				c.forwarded.Add(1)
				return sol, err
			}
			if ctx.Err() != nil {
				return mwl.Solution{}, ctx.Err()
			}
			c.fallback.Add(1)
		}
		return c.serveLocal(ctx, svc, p, trueOwner)
	}
}

// localSolver is the solve function for requests a peer already
// forwarded here: never forwarded onward, but still read-through-aware,
// so a forward that lands on a non-owner (the owner died) serves the
// replicated copy instead of recomputing.
func (c *cluster) localSolver(svc *mwl.Service) func(context.Context, mwl.Problem) (mwl.Solution, error) {
	return func(ctx context.Context, p mwl.Problem) (mwl.Solution, error) {
		return c.serveLocal(ctx, svc, p, c.owner(p))
	}
}

// unavailableStatus reports whether an HTTP status from a peer means
// "cannot serve right now" rather than a verdict on the problem: 499 is
// a replica draining for shutdown, 503/429 a replica shedding load.
// Falling back keeps those conditions invisible to clients.
func unavailableStatus(code int) bool {
	return code == 499 || code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests
}

// peerError is an owner's non-200 verdict on a forwarded solve. It
// keeps the owner's status and message, so the forwarding replica
// answers exactly as the owner did, and a 422 wraps mwl.ErrInfeasible
// so batch results keep their infeasible marker.
type peerError struct {
	status int
	msg    string
}

func (e *peerError) Error() string { return e.msg }

func (e *peerError) Unwrap() error {
	if e.status == http.StatusUnprocessableEntity {
		return mwl.ErrInfeasible
	}
	return nil
}

// forwardSolve proxies one problem to target's /v1/solve. relayed
// reports whether the target answered usefully: a transport failure
// (connection refused, mid-restart, a response body cut off or over
// relayLimit) or an unavailable status (draining, shedding) returns
// relayed=false and the caller solves locally; any other HTTP-level
// answer — a solution or a *peerError — is the target's verdict.
func (c *cluster) forwardSolve(ctx context.Context, target string, p mwl.Problem) (sol mwl.Solution, err error, relayed bool) {
	blob, err := json.Marshal(p)
	if err != nil {
		return mwl.Solution{}, err, false
	}
	req, err := http.NewRequestWithContext(ctx, "POST", target+"/v1/solve", bytes.NewReader(blob))
	if err != nil {
		return mwl.Solution{}, err, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, c.self)
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			c.observeFailure(target)
		}
		return mwl.Solution{}, err, false
	}
	defer resp.Body.Close()
	// Read one byte past the relay limit: a body that reaches it was
	// truncated, and decoding a truncated solution would surface as a
	// confusing JSON error instead of engaging the fallback path.
	body, err := io.ReadAll(io.LimitReader(resp.Body, c.relayLimit+1))
	if err != nil {
		if ctx.Err() == nil {
			c.relayErrors.Add(1)
			log.Printf("forward to %s died mid-body, solving locally: %v", target, err)
		}
		return mwl.Solution{}, err, false
	}
	if int64(len(body)) > c.relayLimit {
		return mwl.Solution{}, fmt.Errorf("owner %s: response exceeds the %d-byte relay limit", target, c.relayLimit), false
	}
	if unavailableStatus(resp.StatusCode) && ctx.Err() == nil {
		return mwl.Solution{}, fmt.Errorf("owner %s unavailable (status %d)", target, resp.StatusCode), false
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(body))
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return mwl.Solution{}, &peerError{status: resp.StatusCode, msg: msg}, true
	}
	if err := json.Unmarshal(body, &sol); err != nil {
		return mwl.Solution{}, fmt.Errorf("owner %s: decoding solution: %w", target, err), false
	}
	return sol, nil, true
}

// writeShardMetrics appends the cluster routing, health and
// replication series to the Prometheus exposition.
func (c *cluster) writeShardMetrics(w metrics.Writer) {
	w.Counter("mwld_shard_owned_total", "Solve requests handled locally because this replica owns the problem hash.", c.owned.Load())
	w.Counter("mwld_shard_forwarded_total", "Solve requests proxied to the owning replica.", c.forwarded.Load())
	w.Counter("mwld_shard_fallback_total", "Solve requests answered locally because the owning replica was unreachable.", c.fallback.Load())
	w.Counter("mwld_shard_rerouted_total", "Solve requests routed past a down owner to the next ranked replica before burning a connection timeout.", c.rerouted.Load())
	w.Counter("mwld_shard_relay_errors_total", "Forwarded solves whose owner response failed mid-body; each fell back to a local solve.", c.relayErrors.Load())
	w.Counter("mwld_readthrough_hits_total", "Fallback solves served from a ranked peer's store instead of recomputing.", c.readHits.Load())
	w.Counter("mwld_readthrough_misses_total", "Fallback read-throughs that found no replicated copy and recomputed locally.", c.readMisses.Load())
	w.Gauge("mwld_shard_replicas", "Replicas in the configured peer list.", int64(c.ring.Len()))
	if c.health != nil {
		c.health.writeMetrics(w)
	}
	if c.rep != nil {
		c.rep.writeMetrics(w)
	}
}
