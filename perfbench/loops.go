package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request as the load generator saw it.
type sample struct {
	start   time.Time     // when the request was due (open loop) or sent (closed loop)
	end     time.Time     // when its answer was complete
	late    time.Duration // open loop: how late the generator handed it to a conn
	ok      bool          // 200 and equal to the first answer for its problem
	relayed bool          // cluster: sent to a replica that does not own the problem
	conn    int           // closed loop: index of the conn that sent it
	a       answer
}

func (s sample) lat() time.Duration { return s.end.Sub(s.start) }

// latMs returns the latencies of samples in ms; failed or refused
// requests count as +Inf, so they miss any latency limit.
func latMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		if s.ok {
			out[i] = float64(s.lat()) / float64(time.Millisecond)
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// closedRate is the answer rate of a closed loop that started at t0:
// each conn is busy from t0 to its last answer, so the loop's rate is
// the sum over conns of correct answers over that conn's busy time.
func closedRate(ss []sample, t0 time.Time) float64 {
	n := map[int]int{}
	last := map[int]time.Time{}
	for _, s := range ss {
		if s.ok {
			n[s.conn]++
		}
		if s.end.After(last[s.conn]) {
			last[s.conn] = s.end
		}
	}
	rate := 0.0
	for c, k := range n {
		rate += float64(k) / last[c].Sub(t0).Seconds()
	}
	return rate
}

// closedLoop runs one worker per conn until the deadline; each worker
// issues its next request as soon as the previous one is answered.
// Requests in flight at the deadline finish before it returns.
func closedLoop(conns []*conn, deadline time.Time, issue func(w int, c *conn) sample) []sample {
	per := make([][]sample, len(conns))
	var wg sync.WaitGroup
	for w, c := range conns {
		wg.Add(1)
		go func(w int, c *conn) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s := issue(w, c)
				s.conn = w
				per[w] = append(per[w], s)
			}
		}(w, c)
	}
	wg.Wait()
	var out []sample
	for _, ss := range per {
		out = append(out, ss...)
	}
	return out
}

// sliceRates splits [t0, t1) into whole slices of width d (at least
// five slices, narrower when the span is short) and returns each slice's
// correct answers per second, by completion time.
func sliceRates(ss []sample, t0, t1 time.Time, d time.Duration) []float64 {
	n := int(t1.Sub(t0) / d)
	if n < 5 {
		n, d = 5, t1.Sub(t0)/5
	}
	counts := make([]int, n)
	for _, s := range ss {
		if !s.ok || s.end.Before(t0) {
			continue
		}
		if i := int(s.end.Sub(t0) / d); i < n {
			counts[i]++
		}
	}
	out := make([]float64, n)
	for i, c := range counts {
		out[i] = float64(c) / d.Seconds()
	}
	return out
}

// cpuPerReq returns, for each interval between consecutive CPU ticks
// inside [t0, t1], the server CPU milliseconds per answer completed in
// it; intervals with no answers are skipped.
func cpuPerReq(ticks []tick, ss []sample, t0, t1 time.Time) []float64 {
	var out []float64
	for i := 1; i < len(ticks); i++ {
		a, b := ticks[i-1], ticks[i]
		if a.t.Before(t0) || b.t.After(t1) {
			continue
		}
		n := 0
		for _, s := range ss {
			if s.end.After(a.t) && !s.end.After(b.t) {
				n++
			}
		}
		if n > 0 {
			out = append(out, float64(b.cpu-a.cpu)/float64(time.Millisecond)/float64(n))
		}
	}
	return out
}

// forEach calls fn for i = 0..n-1, spread over the conns, one call in
// flight per conn.
func forEach(conns []*conn, n int, fn func(c *conn, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// openResult is one open-loop step.
type openResult struct {
	rate    float64
	samples []sample
	growing bool // the client-side backlog grew over the step
	backlog []int
}

// openLoop sends requests on a fixed schedule at rate per second for
// dur, over the given conns. Requests that find every conn busy queue in
// the client, and their latency counts from when they were due. pick is
// called by the single dispatcher in schedule order.
func openLoop(conns []*conn, rate float64, dur time.Duration, pick func() any, send func(c *conn, job any) sample) openResult {
	total := int(rate * dur.Seconds())
	type job struct {
		due, sent time.Time
		v         any
	}
	// Buffered for every send of the step, so the dispatcher never
	// blocks and its lateness reflects only its own timing.
	jobs := make(chan job, total)
	res := openResult{rate: rate}
	per := make([][]sample, len(conns))
	var wg sync.WaitGroup
	for w, c := range conns {
		wg.Add(1)
		go func(w int, c *conn) {
			defer wg.Done()
			for j := range jobs {
				s := send(c, j.v)
				s.start, s.late = j.due, j.sent.Sub(j.due)
				per[w] = append(per[w], s)
			}
		}(w, c)
	}
	t0 := time.Now()
	every := time.Duration(float64(time.Second) / rate)
	nextProbe := t0
	for i := 0; i < total; i++ {
		due := t0.Add(time.Duration(i) * every)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		if !now.Before(nextProbe) {
			res.backlog = append(res.backlog, len(jobs))
			nextProbe = nextProbe.Add(50 * time.Millisecond)
		}
		jobs <- job{due: due, sent: now, v: pick()}
	}
	res.backlog = append(res.backlog, len(jobs))
	close(jobs)
	wg.Wait()
	for _, ss := range per {
		res.samples = append(res.samples, ss...)
	}
	res.growing = backlogGrowing(res.backlog)
	return res
}

// backlogGrowing reports whether the queued-request count sampled over
// a step grew: the last quarter's mean is above 4 requests and more
// than twice the first quarter's.
func backlogGrowing(b []int) bool {
	if len(b) < 4 {
		return len(b) > 0 && b[len(b)-1] > 4
	}
	q := len(b) / 4
	avg := func(xs []int) float64 {
		t := 0
		for _, x := range xs {
			t += x
		}
		return float64(t) / float64(len(xs))
	}
	head, tail := avg(b[:q]), avg(b[len(b)-q:])
	return tail > 4 && tail > 2*head
}

// scraper polls every server's /metrics, and the fleet's CPU time and
// resident memory, once per interval.
type scraper struct {
	stopc chan struct{}
	wg    sync.WaitGroup

	mu          sync.Mutex
	latMs       []float64
	bytes       []float64
	queueMax    float64
	busySamples []float64 // summed mwld_workers_busy per scrape round
	ticks       []tick
}

// tick is the fleet's CPU time and resident memory read at one poll.
type tick struct {
	t     time.Time
	cpu   time.Duration
	rssMB float64
}

func (s *scraper) samples() []tick {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]tick(nil), s.ticks...)
}

func startScraper(f fleet, every time.Duration) *scraper {
	s := &scraper{stopc: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		c := newConn()
		defer c.close()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
			}
			cpu, err1 := f.cpu()
			rss, err2 := f.mem("VmRSS:")
			if err1 == nil && err2 == nil {
				s.mu.Lock()
				s.ticks = append(s.ticks, tick{time.Now(), cpu, rss})
				s.mu.Unlock()
			}
			busy := 0.0
			for _, srv := range f {
				t0 := time.Now()
				code, body, err := c.get(srv.addr + "/metrics")
				d := time.Since(t0)
				if err != nil || code != 200 {
					continue
				}
				m := parseProm(body)
				s.mu.Lock()
				s.latMs = append(s.latMs, float64(d)/float64(time.Millisecond))
				s.bytes = append(s.bytes, float64(len(body)))
				s.queueMax = math.Max(s.queueMax, m["mwld_queue_depth"])
				s.mu.Unlock()
				busy += m["mwld_workers_busy"]
			}
			s.mu.Lock()
			s.busySamples = append(s.busySamples, busy)
			s.mu.Unlock()
		}
	}()
	return s
}

// stop ends the polling and waits for the poller to exit.
func (s *scraper) stop() {
	close(s.stopc)
	s.wg.Wait()
}

// parseProm sums a Prometheus text exposition by metric name, across
// label sets.
func parseProm(body []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}

// scrapeAll fetches and sums /metrics over the fleet, per server.
func scrapeAll(f fleet) ([]map[string]float64, error) {
	c := newConn()
	defer c.close()
	out := make([]map[string]float64, len(f))
	for i, s := range f {
		code, body, err := c.get(s.addr + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", s.addr, err)
		}
		if code != 200 {
			return nil, fmt.Errorf("scraping %s: status %d", s.addr, code)
		}
		out[i] = parseProm(body)
	}
	return out, nil
}

// delta sums after-before of one metric over the fleet.
func delta(before, after []map[string]float64, name string) float64 {
	t := 0.0
	for i := range after {
		t += after[i][name] - before[i][name]
	}
	return t
}
