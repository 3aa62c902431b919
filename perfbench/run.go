package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	mwl "repro"
)

// setupRepeats is how many times a run sets its workload up; setup_s
// is the median, and only the last set-up is measured.
const setupRepeats = 5

// serverProcs is the GOMAXPROCS each mwld of a workload runs with.
func serverProcs(workload string) int {
	if workload == "cluster-dup" {
		return 1
	}
	return runtime.NumCPU()
}

// runner carries one run's state.
type runner struct {
	cfg config
	dir string
	res *result
	rec *recorder
	tr  *tracer

	tracing atomic.Bool  // record a span per request
	reqs    atomic.Int64 // request ids of traced requests
}

// T is how long the run measures.
func (r *runner) T() time.Duration { return time.Duration(r.cfg.seconds * float64(time.Second)) }

// send posts one problem and records its answer, with a span when
// tracing.
func (r *runner) send(c *conn, addr string, p *problem) sample {
	t0 := time.Now()
	code, body, err := c.post(addr+"/v1/solve", p.body)
	t1 := time.Now()
	a, ok := r.rec.record(p, code, body, err)
	if r.tracing.Load() {
		r.tr.add("mwld.solve", -1, int(r.reqs.Add(1)), t0, t1)
	}
	return sample{start: t0, end: t1, ok: ok, a: a}
}

// stage is the state one set-up leaves for the timed part.
type stage struct {
	servers fleet
	conns   []*conn
}

// close drops the connections and stops the servers; calling it again
// is harmless.
func (s *stage) close() {
	for _, c := range s.conns {
		c.close()
	}
	s.servers.stop()
}

// setUp runs setup setupRepeats times (once when tracing), keeping only
// the last stage, and records setup_s as the median. Each attempt
// starts with a fresh recorder, so only the kept stage's answers count.
func (r *runner) setUp(setup func(attempt int) (*stage, error)) (*stage, error) {
	n := setupRepeats
	if r.cfg.trace {
		n = 1
	}
	var times []float64
	var st *stage
	for i := 0; i < n; i++ {
		if st != nil {
			st.close()
		}
		r.rec = newRecorder()
		t0 := time.Now()
		var err error
		st, err = setup(i)
		if err != nil {
			if st != nil {
				st.close()
			}
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.res.set("setup_s", median(times))
	r.res.notes["setup_s"] = fmt.Sprintf("median of %d set-ups", n)
	return st, nil
}

// window is one measured stretch of load.
type window struct {
	samples       []sample
	t0, t1        time.Time
	serverCPU     time.Duration
	selfCPU       time.Duration
	before, after []map[string]float64
	sc            *scraper
	firstsBefore  int // distinct problems answered before the window
	firstsAfter   int
}

// measure brackets load with /metrics scrapes, server and generator CPU,
// and the once-per-second poller of /metrics and server CPU.
func (r *runner) measure(f fleet, load func() []sample) (*window, error) {
	w := &window{}
	var err error
	if w.before, err = scrapeAll(f); err != nil {
		return nil, err
	}
	cpu0, err := f.cpu()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	w.firstsBefore = len(r.rec.distinct())
	w.sc = startScraper(f, time.Second)
	w.t0 = time.Now()
	w.samples = load()
	w.t1 = time.Now()
	w.sc.stop()
	w.selfCPU = selfCPU() - self0
	cpu1, err := f.cpu()
	if err != nil {
		return nil, err
	}
	w.serverCPU = cpu1 - cpu0
	if w.after, err = scrapeAll(f); err != nil {
		return nil, err
	}
	w.firstsAfter = len(r.rec.distinct())
	return w, nil
}

// plan is what a workload hands the common part of a run.
type plan struct {
	st *stage
	// main runs the measured phases and records the end-to-end metrics
	// (and the demoted ones), returning the whole window and the samples
	// the headline latency comes from.
	main func() (w *window, ref []sample, err error)
	// segment runs the headline load for d, untraced, as the baseline of
	// the tracing overhead.
	segment func(d time.Duration) []sample
	// area_total sums the area of the first areaCount problems of areaSeq.
	areaSeq   *problemSeq
	areaCount int
}

// execute runs a workload's plan: the measured phases (traced with
// -trace 1, after an untraced baseline), then, off the timed path, the
// answer checks, area_total and, when tracing, the per-layer metrics and
// in-process probes.
func (r *runner) execute(p plan) error {
	defer p.st.close()
	T := r.T()
	var base []sample
	if r.cfg.trace {
		base = p.segment(T * 15 / 100)
		r.tracing.Store(true)
	}
	w, ref, err := p.main()
	r.tracing.Store(false)
	if err != nil {
		return err
	}
	// Resident memory under load is the median of the per-second
	// samples; the peak depends on how GC cycles line up with the
	// largest solves and is reported per layer.
	var rss []float64
	for _, t := range w.sc.samples() {
		rss = append(rss, t.rssMB)
	}
	if len(rss) == 0 { // a window shorter than one poll
		now, err := p.st.servers.mem("VmRSS:")
		if err != nil {
			return err
		}
		rss = append(rss, now)
	}
	r.res.set("server_rss_mb", median(rss))
	r.res.notes["server_rss_mb"] = fmt.Sprintf("median of %d per-second VmRSS samples summed over %d mwld", len(rss), len(p.st.servers))
	peak, err := p.st.servers.mem("VmHWM:")
	if err != nil {
		return err
	}
	r.res.set("mwld.rss_peak_mb", peak)
	r.latencies(ref)
	// area_total covers a fixed prefix of the inputs; a run too short to
	// reach all of it asks for the rest now, off the timed path.
	for i := 0; i < p.areaCount; i++ {
		q, err := p.areaSeq.get(i)
		if err != nil {
			return err
		}
		if !r.rec.answered(q.key) {
			r.send(p.st.conns[0], p.st.servers[0].addr, q)
		}
	}
	p.st.close() // checks and probes must not compete with the servers

	sols := r.checkAll()
	area, err := areaOf(p.areaSeq, p.areaCount, sols)
	if err != nil {
		return err
	}
	r.res.set("area_total", area)
	r.res.notes["area_total"] = fmt.Sprintf("first %d problems", p.areaCount)
	if !r.cfg.trace {
		return nil
	}
	b, t := overheadP50(base), overheadP50(ref)
	if b > 0 {
		r.res.set("trace.overhead_pct", 100*(t/b-1))
		r.res.notes["trace.overhead_pct"] = fmt.Sprintf("client overhead p50 %.3fms traced vs %.3fms untraced", t, b)
	}
	firsts := r.rec.distinct()
	r.perLayer(w, sols, firsts)
	var probs []*problem
	var ans []mwl.Solution
	for _, f := range firsts {
		if sol, ok := sols[f.prob.key]; ok {
			probs = append(probs, f.prob)
			ans = append(ans, sol)
		}
	}
	if len(probs) == 0 {
		return errors.New("no verified answers to probe")
	}
	pr, err := r.probeLayers(probs, ans, T*3/10)
	if err != nil {
		return err
	}
	pr.report(r.res)
	r.res.set("trace.spans", float64(r.tr.len()))
	return nil
}

// latencies records the headline latency metrics of ref.
// Latencies are of correct answers; failures count in error_rate.
func (r *runner) latencies(ref []sample) {
	var ok []sample
	for _, s := range ref {
		if s.ok {
			ok = append(ok, s)
		}
	}
	lat := summarize(latMs(ok))
	r.res.set("latency_p50_ms", lat.P50)
	r.res.set("latency_tail_ms", lat.Tail)
	r.res.set("latency_tail_pct", lat.TailQ)
	r.res.set("latency_samples", float64(lat.N))
	r.res.notes["latency_p50_ms"] = fmt.Sprintf("n=%d", lat.N)
	r.res.notes["latency_tail_ms"] = fmt.Sprintf("p%g, n=%d", lat.TailQ, lat.N)
	if len(ref) > 0 {
		r.res.set("error_rate", float64(len(ref)-len(ok))/float64(len(ref)))
	}
}

// checkAll verifies and proves every distinct answer off the timed path
// and folds the verdicts into the result; it returns the verified
// solutions by problem key.
func (r *runner) checkAll() map[string]mwl.Solution {
	firsts := r.rec.distinct()
	t0 := time.Now()
	span := r.tr.begin("check", -1, -1)
	verdicts := checkAnswers(firsts, runtime.NumCPU())
	r.tr.end(span)
	sols := make(map[string]mwl.Solution, len(firsts))
	var bad []string
	for i, v := range verdicts {
		if v.err != nil {
			bad = append(bad, fmt.Sprintf("answer for %s: %v", firsts[i].prob.key[:12], v.err))
			continue
		}
		sols[firsts[i].prob.key] = v.sol
	}
	attempted, failed, mismatch, notes := r.rec.counts()
	r.res.Attempted = attempted
	r.res.Failed = failed + len(bad)
	r.res.Correct = len(bad) == 0 && mismatch == 0
	fmt.Printf("checked %d distinct answers in %.2fs: %d failed Verify/ProveVerilog, %d repeated answers differed from the first\n",
		len(firsts), time.Since(t0).Seconds(), len(bad), mismatch)
	for _, n := range append(notes, bad...) {
		fmt.Printf("  failure: %s\n", n)
	}
	return sols
}

// areaOf sums the area of the verified answers to the first n problems
// of seq.
func areaOf(seq *problemSeq, n int, sols map[string]mwl.Solution) (float64, error) {
	total := 0.0
	for i := 0; i < n; i++ {
		p, err := seq.get(i)
		if err != nil {
			return 0, err
		}
		sol, ok := sols[p.key]
		if !ok {
			return 0, fmt.Errorf("problem %d of area_total has no verified answer", i)
		}
		total += float64(sol.Area)
	}
	return total, nil
}

// serverCPU records server_cpu_ms_per_req: with sliced, as the median
// over the poller's one-second intervals inside [t0, t1], which sheds
// bursts of interference; otherwise over the whole window, for answers
// too slow to divide a second among.
func (r *runner) serverCPU(w *window, t0, t1 time.Time, sliced bool) {
	if per := cpuPerReq(w.sc.samples(), w.samples, t0, t1); sliced && len(per) > 0 {
		r.res.set("server_cpu_ms_per_req", median(per))
		r.res.notes["server_cpu_ms_per_req"] = fmt.Sprintf("median of %d one-second intervals", len(per))
		return
	}
	r.res.set("server_cpu_ms_per_req", float64(w.serverCPU)/float64(time.Millisecond)/float64(len(w.samples)))
	r.res.notes["server_cpu_ms_per_req"] = fmt.Sprintf("whole window, %d requests", len(w.samples))
}

// perLayer records the per-layer metrics of the traced window.
func (r *runner) perLayer(w *window, sols map[string]mwl.Solution, firsts []*first) {
	res := r.res
	status := map[string]int{}
	for _, s := range w.samples {
		if s.a.status == 0 {
			status["5xx"]++ // transport failure
		} else {
			status[statusClass(s.a.status)]++
		}
	}
	res.set("mwld.overhead_ms_p50", overheadP50(w.samples))
	for _, c := range []string{"2xx", "4xx", "429", "503", "5xx"} {
		res.set("mwld.status_"+c, float64(status[c]))
	}
	res.set("mwld.metrics_scrape_ms_p50", median(w.sc.latMs))
	res.set("mwld.metrics_bytes", median(w.sc.bytes))

	n := float64(len(w.samples))
	d := func(name string) float64 { return delta(w.before, w.after, name) }
	res.set("cluster.forwarded_ratio", d("mwld_shard_forwarded_total")/n)
	res.set("cluster.replicate_sent", d("mwld_replicate_sent_total"))
	res.set("cluster.replicate_dropped", d("mwld_replicate_dropped_total"))
	res.set("cluster.fallback", d("mwld_shard_fallback_total"))
	res.set("cluster.relay_errors", d("mwld_shard_relay_errors_total"))
	if fresh := w.firstsAfter - w.firstsBefore; fresh > 0 {
		res.set("cluster.solves_per_unique", d("mwld_solves_total")/float64(fresh))
		res.notes["cluster.solves_per_unique"] = fmt.Sprintf("%d distinct problems", fresh)
	}
	var relayed, direct []float64
	for _, s := range w.samples {
		if !s.ok || !s.a.cached {
			continue
		}
		ms := float64(s.lat()) / float64(time.Millisecond)
		if s.relayed {
			relayed = append(relayed, ms)
		} else {
			direct = append(direct, ms)
		}
	}
	if len(relayed) > 0 && len(direct) > 0 {
		res.set("cluster.relay_overhead_ms_p50", median(relayed)-median(direct))
	}
	if hm := d("mwld_cache_hits_total") + d("mwld_cache_misses_total"); hm > 0 {
		res.set("service.cache_hit_ratio", d("mwld_cache_hits_total")/hm)
	}
	if sm := d("mwld_store_hits_total") + d("mwld_store_misses_total"); sm > 0 {
		res.set("service.store_hit_ratio", d("mwld_store_hits_total")/sm)
	}
	res.set("service.evictions", d("mwld_cache_evictions_total"))
	res.set("service.queue_depth_max", w.sc.queueMax)
	res.set("service.workers_busy_mean", mean(w.sc.busySamples))

	// Solver effort, from the answers to the problems first seen in the
	// window.
	var solveMs, iters, refs, cfgs, evals, merges []float64
	for _, f := range firsts[w.firstsBefore:w.firstsAfter] {
		sol, ok := sols[f.prob.key]
		if !ok {
			continue
		}
		solveMs = append(solveMs, float64(sol.Elapsed)/float64(time.Millisecond))
		iters = append(iters, float64(sol.Stats.Iterations))
		refs = append(refs, float64(sol.Stats.Refinements))
		cfgs = append(cfgs, float64(sol.Stats.Configs))
		evals = append(evals, float64(sol.Stats.Evals))
		merges = append(merges, float64(sol.Stats.Merges))
	}
	res.set("core.solve_ms_p50", median(solveMs))
	res.set("core.iterations_per_solve", mean(iters))
	res.set("core.refinements_per_solve", mean(refs))
	res.set("core.configs_per_solve", mean(cfgs))
	res.set("core.evals_per_solve", mean(evals))
	res.set("core.merges_per_solve", mean(merges))

	res.set("loadgen.lateness_p99_ms", lateP99(w.samples))
	res.set("loadgen.cpu_share", w.selfCPU.Seconds()/(w.t1.Sub(w.t0).Seconds()*float64(runtime.NumCPU())))
}

// overheadP50 is the median of what a request spent outside the solver:
// client latency minus the solver's elapsed_ns on fresh answers, the
// whole latency on cached ones.
func overheadP50(ss []sample) float64 {
	var over []float64
	for _, s := range ss {
		if !s.ok {
			continue
		}
		d := s.lat()
		if !s.a.cached {
			d -= s.a.elapsed
		}
		over = append(over, float64(d)/float64(time.Millisecond))
	}
	return median(over)
}

func lateP99(ss []sample) float64 {
	late := make([]float64, len(ss))
	for i, s := range ss {
		late[i] = float64(s.late) / float64(time.Millisecond)
	}
	return percentile(late, 99)
}
