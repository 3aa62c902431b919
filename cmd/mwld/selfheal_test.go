// Tests for the self-healing cluster layer: health-checked routing,
// replication write-through/read-through, admission control, and the
// relay/fallback bugfixes (normalizeAddr canonicalization, forward
// truncation, mid-body relay failures).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	mwl "repro"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// startHealingCluster is startCluster plus the self-healing layer: an
// active health checker per replica and write-through replication with
// the given copy factor.
func startHealingCluster(t *testing.T, n, factor int, hcfg healthConfig) []*replica {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	peers := strings.Join(urls, ",")
	out := make([]*replica, n)
	for i := range out {
		out[i] = startHealingReplica(t, peers, urls[i], lns[i], factor, hcfg)
	}
	return out
}

// startHealingReplica boots one self-healing replica on a ready
// listener, mirroring the main() wiring: replicator into
// ServiceOptions.OnSolved, health checker attached and started.
func startHealingReplica(t *testing.T, peers, self string, ln net.Listener, factor int, hcfg healthConfig) *replica {
	t.Helper()
	cl, err := newCluster(peers, self)
	if err != nil {
		t.Fatal(err)
	}
	opts := mwl.ServiceOptions{Workers: 2}
	if rep := cl.attachReplicator(factor); rep != nil {
		opts.OnSolved = rep.onSolved
		t.Cleanup(rep.close)
	}
	svc := mwl.NewServiceWith(opts)
	hc := cl.attachHealth(hcfg)
	t.Cleanup(hc.close)
	srv := httptest.NewUnstartedServer(newHandler(handlerConfig{svc: svc, maxBody: 1 << 20, batchMax: 64, cluster: cl}))
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	t.Cleanup(srv.Close)
	return &replica{url: self, svc: svc, cl: cl, srv: srv}
}

func byURL(t *testing.T, reps []*replica, url string) *replica {
	t.Helper()
	for _, r := range reps {
		if r.url == url {
			return r
		}
	}
	t.Fatalf("no replica at %s", url)
	return nil
}

func postProblem(t *testing.T, url string, p mwl.Problem) (*http.Response, mwl.Solution) {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(mustJSON(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sol mwl.Solution
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sol); err != nil {
			t.Fatal(err)
		}
	}
	return resp, sol
}

// testHealthConfig is aggressive enough that a test observes up/down
// flips in tens of milliseconds.
func testHealthConfig() healthConfig {
	return healthConfig{
		interval:  20 * time.Millisecond,
		timeout:   200 * time.Millisecond,
		failAfter: 2,
		passAfter: 1,
	}
}

// TestHealthFailoverServesReplicatedCopy is the kill-a-replica story
// end to end: the owner solves and replicates; the owner dies; the
// health checker flips it down; a request entering through the third
// replica is rerouted to the rank-1 replica, which serves the
// replicated copy without recomputing; a fresh problem owned by the
// dead replica is computed exactly once by its successor; and when the
// owner's address comes back, routing follows it home again.
func TestHealthFailoverServesReplicatedCopy(t *testing.T) {
	reps := startHealingCluster(t, 3, 2, testHealthConfig())
	g := mwl.Fig1Graph()
	lib := mwl.DefaultLibrary()
	lmin, err := mwl.MinLambda(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	p := mwl.Problem{Graph: g, Lambda: lmin + 2}
	key, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	rank := reps[0].cl.ring.Rank(key)
	owner, second, entry := byURL(t, reps, rank[0]), byURL(t, reps, rank[1]), byURL(t, reps, rank[2])

	// Healthy cluster: entry forwards to the owner, which solves and
	// asynchronously replicates to the rank-1 replica.
	resp, sol := postProblem(t, entry.url, p)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := owner.svc.CacheStats().Misses; got != 1 {
		t.Fatalf("owner ran %d solves, want 1", got)
	}
	waitFor(t, "replica copy on rank-1 peer", func() bool {
		_, ok := second.svc.Peek(key)
		return ok
	})

	// Kill the owner and wait for the survivors' health checkers to
	// notice.
	owner.srv.Close()
	waitFor(t, "survivors to mark the owner down", func() bool {
		return !entry.cl.alive(rank[0]) && !second.cl.alive(rank[0])
	})

	// The same problem through the entry replica now reroutes to the
	// rank-1 replica — no connection timeout burned, no fallback — and
	// is served from the replicated copy without a recompute.
	resp2, sol2 := postProblem(t, entry.url, p)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d with owner down, want 200", resp2.StatusCode)
	}
	if !sol2.Cached || sol2.Area != sol.Area {
		t.Fatalf("rerouted answer not the replicated copy: cached=%v area=%v want %v", sol2.Cached, sol2.Area, sol.Area)
	}
	if got := second.svc.CacheStats().Misses; got != 0 {
		t.Fatalf("rank-1 replica recomputed: %d misses, want 0", got)
	}
	if got := entry.cl.rerouted.Load(); got != 1 {
		t.Fatalf("rerouted counter = %d, want 1", got)
	}
	if got := entry.cl.fallback.Load(); got != 0 {
		t.Fatalf("fallback counter = %d, want 0 (owner was routed around, not timed out)", got)
	}
	if got := entry.cl.forwarded.Load(); got != 2 {
		t.Fatalf("forwarded counter = %d, want 2", got)
	}

	// A fresh problem owned by the dead replica is computed exactly once,
	// by the rank-1 successor the reroute lands on.
	p2 := mwl.Problem{Graph: g, Lambda: lmin + 3}
	for l := lmin + 3; ; l++ {
		p2.Lambda = l
		k2, err := p2.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if entry.cl.ring.Owner(k2) == rank[0] {
			break
		}
	}
	k2, _ := p2.Hash()
	resp3, _ := postProblem(t, entry.url, p2)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("fresh problem with dead owner: status %d", resp3.StatusCode)
	}
	acting := byURL(t, reps, entry.cl.ring.Rank(k2)[1])
	if got := acting.svc.CacheStats().Misses; got != 1 {
		t.Fatalf("acting replica ran %d solves for the dead owner's problem, want 1", got)
	}

	// The owner's address comes back (fresh process, cold state): health
	// flips up and forwarding follows the rank order home.
	ln, err := net.Listen("tcp", strings.TrimPrefix(rank[0], "http://"))
	if err != nil {
		t.Fatal(err)
	}
	peersList := strings.Join(entry.cl.ring.Replicas(), ",")
	startHealingReplica(t, peersList, rank[0], ln, 2, testHealthConfig())
	waitFor(t, "survivors to mark the owner up again", func() bool {
		return entry.cl.alive(rank[0]) && second.cl.alive(rank[0])
	})
	pre := entry.cl.forwarded.Load()
	resp4, _ := postProblem(t, entry.url, p)
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("status %d after owner rejoin", resp4.StatusCode)
	}
	if got := entry.cl.forwarded.Load(); got != pre+1 {
		t.Fatalf("forwarded counter = %d after rejoin, want %d", got, pre+1)
	}
	if got := entry.cl.rerouted.Load(); got != 2 {
		t.Fatalf("rerouted counter = %d after rejoin, want still 2", got)
	}
}

// TestReadThroughFetchesRankedCopy: a replica acting for a dead owner
// that does not hold the entry itself fetches it from the ranked
// replicas' stores via the internal endpoint instead of recomputing.
func TestReadThroughFetchesRankedCopy(t *testing.T) {
	reps := startHealingCluster(t, 3, 2, testHealthConfig())
	g := mwl.Fig1Graph()
	lib := mwl.DefaultLibrary()
	lmin, err := mwl.MinLambda(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	p := mwl.Problem{Graph: g, Lambda: lmin + 2}
	key, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	rank := reps[0].cl.ring.Rank(key)
	owner, acting, holder := byURL(t, reps, rank[0]), byURL(t, reps, rank[1]), byURL(t, reps, rank[2])

	// Plant the solved entry on the rank-2 replica only — the shape left
	// behind when the owner died before replicating to everyone the
	// failover will route through.
	sol, err := mwl.NewService(1).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	holder.svc.Admit(key, sol)

	owner.srv.Close()
	waitFor(t, "acting replica to mark the owner down", func() bool {
		return !acting.cl.alive(rank[0])
	})

	resp, got := postProblem(t, acting.url, p)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !got.Cached || got.Area != sol.Area {
		t.Fatalf("read-through answer: cached=%v area=%v, want the planted copy (area %v)", got.Cached, got.Area, sol.Area)
	}
	if got := acting.cl.readHits.Load(); got != 1 {
		t.Fatalf("readthrough hits = %d, want 1", got)
	}
	if got := acting.svc.CacheStats().Misses; got != 0 {
		t.Fatalf("acting replica recomputed: %d misses, want 0", got)
	}
	// The fetched copy is now local: a repeat does not fetch again.
	if _, ok := acting.svc.Peek(key); !ok {
		t.Fatal("fetched copy was not admitted locally")
	}
}

// blockGate gates the test-block solver so tests can hold solves
// in-flight deliberately.
var blockGate struct {
	sync.Mutex
	ch chan struct{}
}

func setBlockGate(ch chan struct{}) {
	blockGate.Lock()
	blockGate.ch = ch
	blockGate.Unlock()
}

type blockingSolver struct{}

func (blockingSolver) Solve(ctx context.Context, p mwl.Problem) (mwl.Solution, error) {
	blockGate.Lock()
	ch := blockGate.ch
	blockGate.Unlock()
	select {
	case <-ch:
		return mwl.Solution{Method: "test-block", Datapath: &mwl.Datapath{}, Area: 1}, nil
	case <-ctx.Done():
		return mwl.Solution{}, ctx.Err()
	}
}

func init() {
	if err := mwl.Register("test-block", blockingSolver{}); err != nil {
		panic(err)
	}
}

// TestAdmissionShedsWhenQueueFull: with the worker pool saturated and
// the queue at its cap, the next solve is refused 503 + Retry-After
// before parsing a body or taking a slot; released capacity answers the
// queued work normally.
func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	gate := make(chan struct{})
	setBlockGate(gate)
	svc := mwl.NewService(1)
	adm := newAdmission(svc, nil, 2, 0, 0)
	srv := httptest.NewServer(newHandler(handlerConfig{svc: svc, maxBody: 1 << 20, adm: adm}))
	defer srv.Close()

	g := mwl.Fig1Graph()
	statuses := make([]int, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/solve", "application/json",
				bytes.NewReader(mustJSON(t, mwl.Problem{Method: "test-block", Graph: g, Lambda: 40 + i})))
			if err != nil {
				return
			}
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	waitFor(t, "two solves queued behind the busy worker", func() bool {
		return svc.Queued() >= 2
	})

	resp, err := http.Post(srv.URL+"/v1/solve", "application/json",
		bytes.NewReader(mustJSON(t, mwl.Problem{Method: "test-block", Graph: g, Lambda: 50})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with a full queue, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	if got := adm.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	close(gate)
	wg.Wait()
	for i, s := range statuses {
		if s != http.StatusOK {
			t.Fatalf("queued request %d answered %d after release, want 200", i, s)
		}
	}
}

// TestRateLimitPerClient: the token bucket refuses a client's burst
// overflow with 429 and a whole-second Retry-After, keeps clients
// independent, and exempts requests forwarded by a configured peer
// (the originating peer's client already paid there).
func TestRateLimitPerClient(t *testing.T) {
	cl, err := newCluster("self:1,peer:1", "self:1")
	if err != nil {
		t.Fatal(err)
	}
	adm := newAdmission(mwl.NewService(1), cl, 0, 1, 1)

	mk := func(remote string, forwarded bool) *http.Request {
		r := httptest.NewRequest("POST", "/v1/solve", nil)
		r.RemoteAddr = remote
		if forwarded {
			r.Header.Set(forwardedHeader, "http://peer:1")
		}
		return r
	}
	if !adm.admit(httptest.NewRecorder(), mk("10.0.0.1:1111", false)) {
		t.Fatal("first request refused")
	}
	rec := httptest.NewRecorder()
	if adm.admit(rec, mk("10.0.0.1:2222", false)) {
		t.Fatal("burst overflow admitted")
	}
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	if !adm.admit(httptest.NewRecorder(), mk("10.0.0.2:3333", false)) {
		t.Fatal("unrelated client refused")
	}
	if !adm.admit(httptest.NewRecorder(), mk("10.0.0.1:4444", true)) {
		t.Fatal("peer-forwarded request rate limited")
	}
	for _, from := range []string{"http://self:1", "http://stranger:1"} {
		r := mk("10.0.0.1:5555", false)
		r.Header.Set(forwardedHeader, from)
		if adm.admit(httptest.NewRecorder(), r) {
			t.Fatalf("request claiming to be forwarded by %s bypassed the rate limit", from)
		}
	}
	if got := adm.limited.Load(); got != 3 {
		t.Fatalf("limited counter = %d, want 3", got)
	}
}

// TestForwardedHeaderDoesNotBypassRateLimit: a single replica has no
// peers, so a client that sets the forwarded header itself is rate
// limited like any other.
func TestForwardedHeaderDoesNotBypassRateLimit(t *testing.T) {
	svc := mwl.NewService(1)
	srv := httptest.NewServer(newHandler(handlerConfig{svc: svc, maxBody: 1 << 20, adm: newAdmission(svc, nil, 0, 1, 1)}))
	defer srv.Close()
	g := mwl.Fig1Graph()
	lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	blob := mustJSON(t, mwl.Problem{Graph: g, Lambda: lmin + 2})
	for i, want := range []int{http.StatusOK, http.StatusTooManyRequests} {
		req, err := http.NewRequest("POST", srv.URL+"/v1/solve", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(forwardedHeader, "http://peer:1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("request %d with a forwarded header: status %d, want %d", i+1, resp.StatusCode, want)
		}
	}
}

// TestShedOwnerFallsBack: a forwarding peer treats the owner's 503
// (shedding) like unreachability — the client sees a 200 fallback, not
// the owner's overload.
func TestShedOwnerFallsBack(t *testing.T) {
	reps := startCluster(t, 2)
	g := mwl.Fig1Graph()
	lib := mwl.DefaultLibrary()
	lmin, err := mwl.MinLambda(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	p := mwl.Problem{Graph: g, Lambda: lmin + 2}
	owner, peer := splitByOwner(t, reps, p)

	addr := strings.TrimPrefix(owner.url, "http://")
	owner.srv.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	shedding := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errors.New("worker queue full, shedding load"))
	})}
	go shedding.Serve(ln)
	t.Cleanup(func() { shedding.Close() })

	resp, sol := postProblem(t, peer.url, p)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with shedding owner, want 200 local fallback", resp.StatusCode)
	}
	if err := sol.Datapath.Verify(g, lib, p.Lambda); err != nil {
		t.Fatalf("fallback datapath illegal: %v", err)
	}
	if got := peer.cl.fallback.Load(); got != 1 {
		t.Fatalf("fallback counter = %d, want 1", got)
	}
	if got := peer.cl.forwarded.Load(); got != 0 {
		t.Fatalf("forwarded counter = %d, want 0", got)
	}
}

// TestNormalizeAddrCanonicalizes: scheme and host are lowercased (the
// path, which may be case-significant, is not), so replicas configured
// with case variants of the same peer list agree on every owner — and
// a peer list that collapses to duplicates is rejected outright.
func TestNormalizeAddrCanonicalizes(t *testing.T) {
	cases := map[string]string{
		" HTTP://Host1:8080/ ": "http://host1:8080",
		"Host2:9090":           "http://host2:9090",
		"HOST:1/Base":          "http://host:1/Base",
		"https://A:1":          "https://a:1",
	}
	for in, want := range cases {
		if got := normalizeAddr(in); got != want {
			t.Fatalf("normalizeAddr(%q) = %q, want %q", in, got, want)
		}
	}
	if _, err := newCluster("Host1:8080,host1:8080", "host1:8080"); err == nil {
		t.Fatal("duplicate peers (case variants) accepted")
	}
	cl1, err := newCluster("HostA:1,hostb:2", "hosta:1")
	if err != nil {
		t.Fatal(err)
	}
	cl2, err := newCluster("hosta:1,HostB:2", "hostb:2")
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := cl1.ring.Replicas(), cl2.ring.Replicas()
	if len(r1) != 2 || len(r2) != 2 || r1[0] != r2[0] || r1[1] != r2[1] {
		t.Fatalf("case variants produce different rings: %v vs %v", r1, r2)
	}
}

// TestForwardTruncationFallsBack: an owner response that hits the relay
// byte limit is a transport failure, not a decode error — the batch
// path falls back to a local solve.
func TestForwardTruncationFallsBack(t *testing.T) {
	reps := startCluster(t, 2)
	g := mwl.Fig1Graph()
	lib := mwl.DefaultLibrary()
	lmin, err := mwl.MinLambda(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	p := mwl.Problem{Graph: g, Lambda: lmin + 2}
	owner, peer := splitByOwner(t, reps, p)
	peer.cl.relayLimit = 64

	addr := strings.TrimPrefix(owner.url, "http://")
	owner.srv.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	oversized := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(bytes.Repeat([]byte("x"), 200))
	})}
	go oversized.Serve(ln)
	t.Cleanup(func() { oversized.Close() })

	resp, err := http.Post(peer.url+"/v1/solve/batch", "application/json",
		bytes.NewReader(mustJSON(t, mwl.BatchRequest{Problems: []mwl.Problem{p}})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out mwl.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].Solution == nil {
		t.Fatalf("batch with oversized owner response: %+v", out.Results)
	}
	if got := peer.cl.fallback.Load(); got != 1 {
		t.Fatalf("fallback counter = %d, want 1 (truncation must engage the fallback)", got)
	}
	if got := peer.cl.forwarded.Load(); got != 0 {
		t.Fatalf("forwarded counter = %d, want 0", got)
	}
	if got := peer.svc.CacheStats().Misses; got != 1 {
		t.Fatalf("peer ran %d local solves, want 1", got)
	}
}

// TestRelayMidBodyErrorCounted: a forward whose owner connection dies
// mid-body is counted as a relay error and falls back to a local
// solve, so the client still gets a whole, legal answer instead of half
// a 200.
func TestRelayMidBodyErrorCounted(t *testing.T) {
	reps := startCluster(t, 2)
	g := mwl.Fig1Graph()
	lib := mwl.DefaultLibrary()
	lmin, err := mwl.MinLambda(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	p := mwl.Problem{Graph: g, Lambda: lmin + 2}
	owner, peer := splitByOwner(t, reps, p)

	// Replace the owner with a stub that promises a large body and
	// delivers a fraction of it: the forwarder's body read hits an
	// unexpected EOF.
	addr := strings.TrimPrefix(owner.url, "http://")
	owner.srv.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	truncating := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", "4096")
		w.Write([]byte(`{"truncated":`))
	})}
	go truncating.Serve(ln)
	t.Cleanup(func() { truncating.Close() })

	resp, sol := postProblem(t, peer.url, p)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with a truncating owner, want 200 local fallback", resp.StatusCode)
	}
	if err := mwl.Verify(p, sol); err != nil {
		t.Fatalf("fallback solution fails mwl.Verify: %v", err)
	}
	if got := peer.cl.relayErrors.Load(); got != 1 {
		t.Fatalf("relay error counter = %d, want 1", got)
	}
	if got := peer.cl.fallback.Load(); got != 1 {
		t.Fatalf("fallback counter = %d, want 1", got)
	}
	if got := peer.cl.forwarded.Load(); got != 0 {
		t.Fatalf("forwarded counter = %d, want 0 (the owner's answer never reached the client)", got)
	}
}

// TestSolutionEndpointValidation: the internal replication endpoints
// reject malformed keys and bodies.
func TestSolutionEndpointValidation(t *testing.T) {
	svc := mwl.NewService(1)
	srv := httptest.NewServer(newHandler(handlerConfig{svc: svc, maxBody: 1 << 20}))
	defer srv.Close()
	key := strings.Repeat("ab", 32)

	resp, err := http.Get(srv.URL + "/internal/v1/solution/nothex")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad key: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/internal/v1/solution/" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent key: status %d, want 404", resp.StatusCode)
	}

	req, _ := http.NewRequest("PUT", srv.URL+"/internal/v1/solution/"+key, strings.NewReader(`{"area":1}`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("datapath-less PUT: status %d, want 400", resp.StatusCode)
	}

	blob := mustJSON(t, mwl.Solution{Method: "test", Datapath: &mwl.Datapath{}, Area: 7})
	req, _ = http.NewRequest("PUT", srv.URL+"/internal/v1/solution/"+key, bytes.NewReader(blob))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("valid PUT: status %d, want 204", resp.StatusCode)
	}
	if sol, ok := svc.Peek(key); !ok || sol.Area != 7 {
		t.Fatalf("PUT entry not visible to Peek: (%+v, %v)", sol, ok)
	}
}
