package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	mwl "repro"
	"repro/internal/dfg"
	"repro/internal/wcg"
)

// span is one timed call recorded by the benchmark around a layer
// boundary. Spans of one request share req; parent is the index of the
// enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing. Safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a finished span from absolute times.
func (t *tracer) add(name string, parent, req int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Req: req})
	t.mu.Unlock()
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// probeResult is what the in-process layer probes measured.
type probeResult struct {
	hashUs, decodeUs, encodeUs, verifyUs, proveMs []float64
	serviceUs, wcgUs, reachUs                     []float64
	solves                                        int
	allocMB, mallocs                              float64 // per solve
	cpuByLayer                                    map[string]int64
}

// probeLayers times direct calls into each layer's public functions on
// the given problems and their answers, for at most budget: the wire
// functions, Verify and ProveVerilog, a Service cache hit, wcg.Build
// and dfg.NewReach, and then in-process mwl.Solve calls under
// runtime.MemStats deltas and a CPU profile.
func (r *runner) probeLayers(probs []*problem, sols []mwl.Solution, budget time.Duration) (*probeResult, error) {
	tr := r.tr
	pr := &probeResult{}
	lib := mwl.DefaultLibrary()
	svc := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 1, CacheEntries: -1})
	ctx := context.Background()
	stopAt := time.Now().Add(budget / 2)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	timed := func(name string, parent, req int, f func() error) (time.Duration, error) {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		tr.add(name, parent, req, t0, t1)
		return t1.Sub(t0), err
	}
	for i, p := range probs {
		if i > 0 && time.Now().After(stopAt) {
			break
		}
		root := tr.begin("probe", -1, i)
		d, err := timed("wire.hash", root, i, func() error { _, err := p.p.Hash(); return err })
		if err != nil {
			return nil, err
		}
		pr.hashUs = append(pr.hashUs, us(d))
		var q mwl.Problem
		d, err = timed("wire.decode", root, i, func() error { return json.Unmarshal(p.body, &q) })
		if err != nil {
			return nil, err
		}
		pr.decodeUs = append(pr.decodeUs, us(d))
		d, _ = timed("wire.encode", root, i, func() error {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ") // as mwld writes answers
			return enc.Encode(sols[i])
		})
		pr.encodeUs = append(pr.encodeUs, us(d))
		d, err = timed("check.verify", root, i, func() error { return mwl.Verify(p.p, sols[i]) })
		if err != nil {
			return nil, err
		}
		pr.verifyUs = append(pr.verifyUs, us(d))
		d, err = timed("rtl.prove", root, i, func() error {
			src, err := mwl.GenerateVerilog("dut", p.p.Graph, lib, sols[i].Datapath)
			if err != nil {
				return err
			}
			_, err = mwl.ProveVerilog(src, p.p.Graph, lib, sols[i].Datapath)
			return err
		})
		if err != nil {
			return nil, err
		}
		pr.proveMs = append(pr.proveMs, us(d)/1000)
		d, err = timed("wcg.build", root, i, func() error { _, err := wcg.Build(p.p.Graph, lib); return err })
		if err != nil {
			return nil, err
		}
		pr.wcgUs = append(pr.wcgUs, us(d))
		d, err = timed("dfg.reach_build", root, i, func() error { _, err := dfg.NewReach(p.p.Graph); return err })
		if err != nil {
			return nil, err
		}
		pr.reachUs = append(pr.reachUs, us(d))
		// A Service hit: admit the known answer, then time the lookup.
		svc.Admit(p.key, sols[i])
		d, err = timed("service.solve", root, i, func() error { _, err := svc.Solve(ctx, p.p); return err })
		if err != nil {
			return nil, err
		}
		pr.serviceUs = append(pr.serviceUs, us(d))
		tr.end(root)
	}

	// Solver internals: allocation and CPU by package over in-process
	// solves, for the rest of the budget (at least one solve).
	var prof bytes.Buffer
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	stopAt = stopAt.Add(budget / 2)
	for i, p := range probs {
		if i > 0 && time.Now().After(stopAt) {
			break
		}
		root := tr.begin("probe.solve", -1, i)
		_, err := timed("core.solve", root, i, func() error { _, err := mwl.Solve(ctx, p.p); return err })
		tr.end(root)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		pr.solves++
	}
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	pr.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / float64(pr.solves)
	pr.mallocs = float64(m1.Mallocs-m0.Mallocs) / float64(pr.solves)
	p, err := decodeCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	pr.cpuByLayer = attribute(p)
	return pr, nil
}

// report adds the probe metrics to the result.
func (pr *probeResult) report(res *result) {
	res.set("wire.hash_us", median(pr.hashUs))
	res.set("wire.decode_us", median(pr.decodeUs))
	res.set("wire.encode_us", median(pr.encodeUs))
	res.set("check.verify_us", median(pr.verifyUs))
	res.set("rtl.prove_ms", median(pr.proveMs))
	res.set("service.solve_call_us_p50", median(pr.serviceUs))
	res.set("wcg.build_us", median(pr.wcgUs))
	res.set("dfg.reach_build_us", median(pr.reachUs))
	res.set("core.alloc_mb_per_solve", pr.allocMB)
	res.set("core.mallocs_per_solve", pr.mallocs)
	var total int64
	for _, v := range pr.cpuByLayer {
		total += v
	}
	perSolve := func(ns int64) float64 { return float64(ns) / 1e6 / float64(pr.solves) }
	res.set("solve.cpu_ms_per_solve", perSolve(total))
	for _, layer := range append(append([]string(nil), solverPackages...), "gc", "other") {
		res.set(layer+".cpu_ms_per_solve", perSolve(pr.cpuByLayer[layer]))
	}
	if total > 0 {
		res.set("core.gc_share", float64(pr.cpuByLayer["gc"])/float64(total))
	}
	res.notes["solve.cpu_ms_per_solve"] = fmt.Sprintf("%d in-process solves profiled", pr.solves)
}
