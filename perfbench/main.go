// Command perfbench is the mwld performance ledger: it builds nothing
// itself, but starts real mwld processes (see run.sh, which builds them),
// drives one named workload against them from this single process,
// checks every answer, and prints each metric by name with its unit.
//
//	perfbench -workload cold-large|hot-small|cluster-dup -seed N -seconds S -trace 0|1
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs
// a traced variant of the workload and prints the per-layer metrics,
// timing calls into each layer's public functions from outside and
// writing its spans to .bench_build/trace-<workload>-<seed>.jsonl. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {"name": {"value": V, "unit": "U"}}}
//
// The exit status is 1 when any answer was wrong (failed mwl.Verify,
// failed mwl.ProveVerilog, or differed from the first answer to the
// same problem), and 2 when the run could not be carried out at all;
// in that case no result line is printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of mwld sees that carry a bound,
// printed by -trace 0 on every workload. area_total and server_rss_mb
// repeat within a tenth from run to run; setup_s drifts with the host
// like every timing, but stays so that work moved into set-up shows.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"area_total", "area"},
	{"server_rss_mb", "MiB"},
}

// perLayer are the metrics of single layers, printed by -trace 1 on
// every workload; a layer a workload does not reach reads 0. The first
// eight are end-to-end metrics that did not repeat within a tenth from
// run to run on the reference machine, so they carry no bound: on its
// shared 2-vCPU host the speed of the same code drifts by up to 2x over
// minutes, and every timing drifts with it.
var perLayer = []metricDef{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"server_cpu_ms_per_req", "ms"},
	{"capacity_rps", "1/s"},
	{"latency_tail_ms", "ms"},
	{"latency_tail_pct", "pct"},
	{"latency_samples", "count"},
	{"error_rate", "ratio"},
	{"mwld.overhead_ms_p50", "ms"},
	{"mwld.rss_peak_mb", "MiB"},
	{"mwld.metrics_scrape_ms_p50", "ms"},
	{"mwld.metrics_bytes", "bytes"},
	{"mwld.status_2xx", "count"},
	{"mwld.status_4xx", "count"},
	{"mwld.status_429", "count"},
	{"mwld.status_503", "count"},
	{"mwld.status_5xx", "count"},
	{"cluster.forwarded_ratio", "ratio"},
	{"cluster.relay_overhead_ms_p50", "ms"},
	{"cluster.solves_per_unique", "ratio"},
	{"cluster.replicate_sent", "count"},
	{"cluster.replicate_dropped", "count"},
	{"cluster.fallback", "count"},
	{"cluster.relay_errors", "count"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.store_hit_ratio", "ratio"},
	{"service.evictions", "count"},
	{"service.queue_depth_max", "count"},
	{"service.workers_busy_mean", "count"},
	{"service.solve_call_us_p50", "us"},
	{"wire.hash_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.encode_us", "us"},
	{"check.verify_us", "us"},
	{"rtl.prove_ms", "ms"},
	{"core.solve_ms_p50", "ms"},
	{"core.iterations_per_solve", "count"},
	{"core.refinements_per_solve", "count"},
	{"core.configs_per_solve", "count"},
	{"core.evals_per_solve", "count"},
	{"core.merges_per_solve", "count"},
	{"core.alloc_mb_per_solve", "MiB"},
	{"core.mallocs_per_solve", "count"},
	{"core.gc_share", "ratio"},
	{"solve.cpu_ms_per_solve", "ms"},
	{"wcg.cpu_ms_per_solve", "ms"},
	{"sched.cpu_ms_per_solve", "ms"},
	{"bind.cpu_ms_per_solve", "ms"},
	{"refine.cpu_ms_per_solve", "ms"},
	{"dfg.cpu_ms_per_solve", "ms"},
	{"bitset.cpu_ms_per_solve", "ms"},
	{"core.cpu_ms_per_solve", "ms"},
	{"gc.cpu_ms_per_solve", "ms"},
	{"other.cpu_ms_per_solve", "ms"},
	{"wcg.build_us", "us"},
	{"dfg.reach_build_us", "us"},
	{"loadgen.lateness_p99_ms", "ms"},
	{"loadgen.cpu_share", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// unbounded are the end-to-end figures without a bound that an
// untraced run still prints for reading, above the result line.
var unbounded = []string{"throughput_rps", "capacity_rps", "latency_p50_ms", "latency_tail_ms", "server_cpu_ms_per_req", "error_rate"}

var workloads = []string{"cold-large", "hot-small", "cluster-dup"}

// result is the final line of a run.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
	order     []string                // metric names in print order
	units     map[string]string       // name → unit of every known metric
	notes     map[string]string       // name → remark printed beside the value
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result {
	r := &result{Correct: true, Metrics: map[string]resultMetric{}, units: map[string]string{}, notes: map[string]string{}}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		r.units[d.name] = d.unit
	}
	return r
}

// set records a metric; the name must be one of the declared metrics.
func (r *result) set(name string, v float64) {
	unit, ok := r.units[name]
	if !ok {
		panic("undeclared metric " + name)
	}
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	if math.IsInf(v, 0) || math.IsNaN(v) {
		// JSON has no infinities; say so beside the 0 that stands in.
		r.notes[name] = fmt.Sprintf("undefined (%g)", v)
		v = 0
	}
	r.Metrics[name] = resultMetric{Value: v, Unit: unit}
}

// keep drops every metric not in defs and fills missing ones with 0.
func (r *result) keep(defs []metricDef) {
	out := make(map[string]resultMetric, len(defs))
	order := make([]string, 0, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			m = resultMetric{Unit: d.unit}
		}
		out[d.name] = m
		order = append(order, d.name)
	}
	r.Metrics, r.order = out, order
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	mwld     string // path of the mwld binary
	work     string // directory for stores and traces
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the run measures")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&cfg.mwld, "mwld", filepath.Join(".bench_build", "bin", "mwld"), "mwld binary")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for run state and traces")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fail("-trace must be 0 or 1")
	}
	if cfg.seconds <= 0 {
		fail("-seconds must be positive")
	}
	if _, err := os.Stat(cfg.mwld); err != nil {
		fail("mwld binary: %v", err)
	}

	info := machine(cfg)
	blob, _ := json.Marshal(info) // plain map of strings and numbers
	fmt.Printf("machine: %s\n", blob)

	res, err := runWorkload(cfg)
	if err != nil {
		fail("%s: %v", cfg.workload, err)
	}
	if cfg.trace {
		res.keep(perLayer)
	} else {
		for _, name := range unbounded {
			if _, ok := res.Metrics[name]; ok {
				res.printLine(name, "no bound")
			}
		}
		res.keep(endToEnd)
	}
	res.print()
	if !res.Correct {
		os.Exit(1)
	}
}

// fail reports a run that could not be carried out and exits 2 without
// a result line.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func runWorkload(cfg config) (*result, error) {
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, fmt.Errorf("run directory: %w", err)
	}
	defer os.RemoveAll(dir)
	r := &runner{cfg: cfg, dir: dir, res: newResult(), rec: newRecorder()}
	if cfg.trace {
		r.tr = newTracer()
	}
	switch cfg.workload {
	case "cold-large":
		err = r.coldLarge()
	case "hot-small":
		err = r.hotSmall()
	case "cluster-dup":
		err = r.clusterDup()
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, err
	}
	if r.tr != nil {
		path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := r.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("trace: %d spans written to %s\n", r.tr.len(), path)
	}
	return r.res, nil
}

// print writes the human-readable report and then the result line.
func (r *result) print() {
	for _, name := range r.order {
		r.printLine(name, "")
	}
	blob, err := json.Marshal(r)
	if err != nil {
		fail("encoding result: %v", err)
	}
	fmt.Println(string(blob))
}

// printLine writes one metric with its unit, its note and an optional
// remark.
func (r *result) printLine(name, remark string) {
	m := r.Metrics[name]
	line := fmt.Sprintf("%-32s %14.6g %s", name, m.Value, m.Unit)
	for _, n := range []string{r.notes[name], remark} {
		if n != "" {
			line += "  (" + n + ")"
		}
	}
	fmt.Println(line)
}

// machine describes where the numbers were taken.
func machine(cfg config) map[string]any {
	cpu := "unknown"
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	rev := os.Getenv("PERFBENCH_SOURCE")
	if rev == "" {
		rev = "unknown"
	}
	return map[string]any{
		"cpu":               cpu,
		"nproc":             runtime.NumCPU(),
		"client_gomaxprocs": runtime.GOMAXPROCS(0),
		"server_gomaxprocs": serverProcs(cfg.workload),
		"go":                runtime.Version(),
		"source":            rev,
		"workload":          cfg.workload,
		"seed":              cfg.seed,
		"seconds":           cfg.seconds,
		"trace":             cfg.trace,
		"started":           time.Now().UTC().Format(time.RFC3339),
	}
}
