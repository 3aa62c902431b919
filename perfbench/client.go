package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// conn is one load-generator connection: its own transport, so the
// requests of one conn share one keep-alive connection per server.
type conn struct {
	c   *http.Client
	buf bytes.Buffer
}

func newConn() *conn {
	return &conn{c: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// post sends body to url and returns the status and the response body,
// valid until the next call on this conn.
func (c *conn) post(url string, body []byte) (int, []byte, error) {
	resp, err := c.c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// get fetches url and returns the status and body, valid until the next
// call on this conn.
func (c *conn) get(url string) (int, []byte, error) {
	resp, err := c.c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// answer is what the load generator extracts from one response on the
// timed path: cheap fields only. Full checks run later on the first
// answer of each problem.
type answer struct {
	status  int
	digest  uint64        // hash of the body without cached/elapsed_ns
	cached  bool          // "cached": true
	elapsed time.Duration // the solver's elapsed_ns
}

// scanAnswer reads the volatile fields of a solution body and hashes
// the rest. mwld indents its JSON, so top-level fields sit on lines of
// their own; other layouts fall back to a decode and re-encode.
func scanAnswer(body []byte) (answer, error) {
	a := answer{status: http.StatusOK}
	if !bytes.Contains(body, []byte("\n  \"")) {
		return scanCompact(body)
	}
	h := fnv.New64a()
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i+1], body[i+1:]
		} else {
			body = nil
		}
		if v, ok := bytes.CutPrefix(line, []byte(`  "elapsed_ns": `)); ok {
			n, err := strconv.ParseInt(string(bytes.TrimRight(v, ",\r\n")), 10, 64)
			if err != nil {
				return a, fmt.Errorf("elapsed_ns: %w", err)
			}
			a.elapsed = time.Duration(n)
			continue
		}
		if v, ok := bytes.CutPrefix(line, []byte(`  "cached": `)); ok {
			a.cached = bytes.HasPrefix(v, []byte("true"))
			continue
		}
		h.Write(line)
	}
	a.digest = h.Sum64()
	return a, nil
}

func scanCompact(body []byte) (answer, error) {
	a := answer{status: http.StatusOK}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return a, fmt.Errorf("decoding answer: %w", err)
	}
	if v, ok := m["elapsed_ns"]; ok {
		if err := json.Unmarshal(v, &a.elapsed); err != nil {
			return a, fmt.Errorf("elapsed_ns: %w", err)
		}
	}
	if v, ok := m["cached"]; ok {
		a.cached = string(v) == "true"
	}
	delete(m, "elapsed_ns")
	delete(m, "cached")
	canon, err := json.Marshal(m)
	if err != nil {
		return a, err
	}
	h := fnv.New64a()
	h.Write(canon)
	a.digest = h.Sum64()
	return a, nil
}

// statusClass buckets an HTTP status for the mwld.status_* counters;
// transport failures count as 5xx.
func statusClass(code int) string {
	switch {
	case code >= 200 && code < 300:
		return "2xx"
	case code == http.StatusTooManyRequests:
		return "429"
	case code == http.StatusServiceUnavailable:
		return "503"
	case code >= 400 && code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// first is the first answer seen for one problem: the one every later
// answer must equal, and the one the offline checks verify.
type first struct {
	prob   *problem
	body   []byte
	digest uint64
}

// recorder tallies every answer and keeps the first answer per problem
// hash. Safe for concurrent use.
type recorder struct {
	mu        sync.Mutex
	firsts    map[string]*first
	order     []string // problem keys in first-answer order
	attempted int
	failed    int
	mismatch  int
	notes     []string // first few failure descriptions
}

func newRecorder() *recorder {
	return &recorder{firsts: make(map[string]*first)}
}

func (r *recorder) note(format string, args ...any) {
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// record tallies one response to p: status, transport error, or a
// successful body. It reports the answer and whether it was correct so
// far (a 200 whose body matches the first answer for p).
func (r *recorder) record(p *problem, code int, body []byte, err error) (answer, bool) {
	var a answer
	if err == nil && code == http.StatusOK {
		a, err = scanAnswer(body)
	}
	a.status = code
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.note("request error: %v", err)
		return a, false
	}
	if code != http.StatusOK {
		r.failed++
		r.note("status %d: %.200s", code, body)
		return a, false
	}
	f := r.firsts[p.key]
	if f == nil {
		r.firsts[p.key] = &first{prob: p, body: bytes.Clone(body), digest: a.digest}
		r.order = append(r.order, p.key)
		return a, true
	}
	if f.digest != a.digest {
		r.failed++
		r.mismatch++
		r.note("answer for %s differs from its first answer", p.key[:12])
		return a, false
	}
	return a, true
}

// answered reports whether a problem has an answer on record.
func (r *recorder) answered(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.firsts[key] != nil
}

// distinct returns the first answers in first-seen order.
func (r *recorder) distinct() []*first {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*first, len(r.order))
	for i, k := range r.order {
		out[i] = r.firsts[k]
	}
	return out
}

// counts returns a snapshot of the tallies.
func (r *recorder) counts() (attempted, failed, mismatch int, notes []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempted, r.failed, r.mismatch, append([]string(nil), r.notes...)
}
