package main

import (
	"context"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/metrics"
)

// healthConfig tunes the cluster health checker.
type healthConfig struct {
	// interval is the steady-state gap between probes of an up peer.
	interval time.Duration
	// timeout bounds one probe round-trip.
	timeout time.Duration
	// failAfter consecutive failed probes (or request-path transport
	// failures) mark a peer down; passAfter consecutive successful
	// probes mark it up again. Both are at least 1.
	failAfter int
	passAfter int
}

func (hc healthConfig) withDefaults() healthConfig {
	if hc.interval <= 0 {
		hc.interval = time.Second
	}
	if hc.timeout <= 0 {
		hc.timeout = hc.interval / 2
		if hc.timeout <= 0 {
			hc.timeout = 500 * time.Millisecond
		}
	}
	if hc.failAfter < 1 {
		hc.failAfter = 3
	}
	if hc.passAfter < 1 {
		hc.passAfter = 2
	}
	return hc
}

// peerState is the health record of one remote peer. Guarded by
// healthChecker.mu.
type peerState struct {
	up     bool
	fails  int // consecutive failures while up (or climbing back)
	passes int // consecutive successes while down

	probes      uint64 // total probes sent
	failures    uint64 // total failed probes + request-path strikes
	transitions uint64 // up<->down flips

	backoff time.Duration // current probe gap while down
}

// healthChecker maintains a live up/down view of the cluster's remote
// peers by probing each one's /healthz on a steady interval, marking a
// peer down after failAfter consecutive failures and up again after
// passAfter consecutive passes. While a peer is down its probe gap
// backs off exponentially (capped at 8x the interval) so a long outage
// is not hammered, and each peer's probe schedule is phase-shifted by a
// hash of its address so replicas sharing a config do not probe in
// lockstep. The request path feeds observed transport failures in as
// extra strikes, so a peer that dies between probes is discovered by
// the traffic that hits it.
type healthChecker struct {
	cfg    healthConfig
	client *http.Client

	mu    sync.Mutex
	peers map[string]*peerState

	stop chan struct{}
	done sync.WaitGroup
}

// newHealthChecker builds (but does not start) a checker over the given
// remote peer addresses. A peer starts up: the cluster assumes the best
// until evidence says otherwise, so a replica booting first does not
// mark the whole cluster down before its peers finish starting.
func newHealthChecker(peers []string, cfg healthConfig) *healthChecker {
	cfg = cfg.withDefaults()
	h := &healthChecker{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.timeout},
		peers:  make(map[string]*peerState, len(peers)),
		stop:   make(chan struct{}),
	}
	for _, p := range peers {
		h.peers[p] = &peerState{up: true, backoff: cfg.interval}
	}
	return h
}

// start launches one probe loop per peer.
func (h *healthChecker) start() {
	h.mu.Lock()
	addrs := make([]string, 0, len(h.peers))
	for p := range h.peers {
		addrs = append(addrs, p)
	}
	h.mu.Unlock()
	for _, p := range addrs {
		h.done.Add(1)
		//mwlvet:allow boundedspawn -- one probe loop per configured peer, bounded by the -peers flag
		go h.probeLoop(p)
	}
}

// close stops all probe loops and waits for them to exit.
func (h *healthChecker) close() {
	close(h.stop)
	h.done.Wait()
}

// phase is the deterministic initial delay of a peer's probe loop: a
// hash of the address spread over one interval. Staggering the loops
// keeps N replicas with identical configs from synchronizing their
// probes; deriving it from the address (rather than a random source)
// keeps the schedule reproducible.
func (h *healthChecker) phase(addr string) time.Duration {
	f := fnv.New64a()
	io.WriteString(f, addr)
	return time.Duration(f.Sum64() % uint64(h.cfg.interval))
}

func (h *healthChecker) probeLoop(addr string) {
	defer h.done.Done()
	t := time.NewTimer(h.phase(addr))
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
		}
		h.observe(addr, h.probe(addr))
		h.mu.Lock()
		ps := h.peers[addr]
		next := h.cfg.interval
		if !ps.up {
			next = ps.backoff
			// Exponential backoff while down, capped at 8x the steady
			// interval: recovery is still noticed within a few seconds at
			// default settings, without hammering a long-dead host.
			if ps.backoff < 8*h.cfg.interval {
				ps.backoff *= 2
			}
		}
		h.mu.Unlock()
		t.Reset(next)
	}
}

// probe performs one /healthz round-trip.
func (h *healthChecker) probe(addr string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), h.cfg.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// observe folds one health observation — a probe result or a
// request-path transport failure — into the peer's state machine.
func (h *healthChecker) observe(addr string, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ps, known := h.peers[addr]
	if !known {
		return
	}
	ps.probes++
	if ok {
		ps.fails = 0
		if !ps.up {
			ps.passes++
			if ps.passes >= h.cfg.passAfter {
				ps.up = true
				ps.passes = 0
				ps.backoff = h.cfg.interval
				ps.transitions++
			}
		}
		return
	}
	ps.failures++
	ps.passes = 0
	if ps.up {
		ps.fails++
		if ps.fails >= h.cfg.failAfter {
			ps.up = false
			ps.fails = 0
			ps.backoff = h.cfg.interval
			ps.transitions++
		}
	}
}

// up reports the current belief about a peer. Unknown addresses are
// assumed up — the checker only tracks configured remote peers, and an
// optimistic default means a config mismatch degrades to the old
// relay-and-timeout behaviour rather than to a black hole.
func (h *healthChecker) up(addr string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	ps, known := h.peers[addr]
	return !known || ps.up
}

// writeMetrics appends per-peer health series to the Prometheus
// exposition, one labelled sample per peer per family.
func (h *healthChecker) writeMetrics(w metrics.Writer) {
	up := make(map[string]int64)
	probes := make(map[string]uint64)
	failures := make(map[string]uint64)
	transitions := make(map[string]uint64)
	h.mu.Lock()
	for a, ps := range h.peers {
		up[a] = 0
		if ps.up {
			up[a] = 1
		}
		probes[a], failures[a], transitions[a] = ps.probes, ps.failures, ps.transitions
	}
	h.mu.Unlock()
	w.GaugeVec("mwld_peer_up", "Whether the peer is currently believed reachable (1) or down (0).", "peer", up)
	w.CounterVec("mwld_peer_probes_total", "Health observations recorded for the peer (probes plus request-path strikes).", "peer", probes)
	w.CounterVec("mwld_peer_probe_failures_total", "Failed health observations recorded for the peer.", "peer", failures)
	w.CounterVec("mwld_peer_transitions_total", "Up/down state flips recorded for the peer.", "peer", transitions)
}

// attachHealth wires an active health checker over the cluster's remote
// peers and starts its probe loops. Call close() on shutdown.
func (c *cluster) attachHealth(cfg healthConfig) *healthChecker {
	remotes := make([]string, 0, c.ring.Len())
	for _, p := range c.ring.Replicas() {
		if p != c.self {
			remotes = append(remotes, p)
		}
	}
	h := newHealthChecker(remotes, cfg)
	c.health = h
	h.start()
	return h
}
