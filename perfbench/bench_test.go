package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	mwl "repro"
	"repro/internal/shard"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if q := tailPercentile(c.n); c.n >= 20 && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond, want >= %d", c.n, q, beyond(c.n, q), minBeyond)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := median(xs); got != 50 {
		t.Errorf("median of 1..100 = %g, want 50", got)
	}
}

func keys(t *testing.T, s *problemSeq, n int) []string {
	t.Helper()
	out := make([]string, n)
	for i := range out {
		p, err := s.get(i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p.key
	}
	return out
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	gens := map[string]func(seed int64) *problemSeq{
		"cold":   coldSeq,
		"small":  func(seed int64) *problemSeq { return smallSeq(seed, 3) },
		"medium": mediumSeq,
	}
	for name, gen := range gens {
		a, b, c := keys(t, gen(7), 6), keys(t, gen(7), 6), keys(t, gen(8), 6)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Errorf("%s: seed 7 gave different inputs on two calls", name)
		}
		if strings.Join(a, ",") == strings.Join(c, ",") {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
		seen := map[string]bool{}
		for _, k := range a {
			if seen[k] {
				t.Errorf("%s: repeated problem %s", name, k)
			}
			seen[k] = true
		}
	}
	for i, p := range keys(t, coldSeq(3), len(coldSizes)) {
		q, _ := coldSeq(3).get(i)
		if q.key != p || q.ops != coldSizes[i] {
			t.Errorf("cold problem %d: %d ops, want %d", i, q.ops, coldSizes[i])
		}
	}

	m1, m2 := newHotMix(5), newHotMix(5)
	fresh := 0
	for i := 0; i < 5000; i++ {
		a, b := m1.next(), m2.next()
		if a != b {
			t.Fatalf("hot mix diverged at request %d: %+v vs %+v", i, a, b)
		}
		if a.fresh {
			fresh++
		}
	}
	if share := float64(fresh) / 5000; share < 0.08 || share > 0.12 {
		t.Errorf("never-seen share %.3f, want about %.2f", share, hotFreshShare)
	}
	r1, r2 := newDupRounds(5, 3), newDupRounds(5, 3)
	for i := 0; i < 1000; i++ {
		intro := r1.intro
		a, b := r1.next(), r2.next()
		if a != b {
			t.Fatalf("cluster rounds diverged at %d", i)
		}
		if r1.intro > intro && (a[0].idx != intro || a[1].idx != intro || a[0].replica == a[1].replica) {
			t.Fatalf("round %d introduces problem %d as %+v, want it sent to two different replicas", i, intro, a)
		}
	}
}

func TestNeverSeenExcludesPool(t *testing.T) {
	pool := smallSeq(11, 3)
	if err := pool.fill(hotPoolSize); err != nil {
		t.Fatal(err)
	}
	fresh := smallSeq(11, 4)
	fresh.exclude(pool)
	inPool := map[string]bool{}
	for _, k := range keys(t, pool, hotPoolSize) {
		inPool[k] = true
	}
	for i, k := range keys(t, fresh, 500) {
		if inPool[k] {
			t.Fatalf("never-seen problem %d is in the pool", i)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestMetricNames checks every metric name and unit against the
// benchmark's naming rules, and BENCHMARK.json against the metrics and
// workloads this program prints.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-], starting with a letter or digit", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: bad unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloads)
	}
}

func TestScanAnswerIgnoresVolatileFields(t *testing.T) {
	sol := mwl.Solution{Method: "dpalloc", Area: 42, Makespan: 7, Elapsed: 1234, AreaByKind: map[string]int64{"add 8": 8}}
	indent := func(s mwl.Solution) []byte {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	hit := sol
	hit.Cached, hit.Elapsed = true, 99
	a, err := scanAnswer(indent(sol))
	if err != nil {
		t.Fatal(err)
	}
	b, err := scanAnswer(indent(hit))
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest || a.cached || !b.cached || a.elapsed != 1234 || b.elapsed != 99 {
		t.Errorf("fresh %+v vs cached %+v", a, b)
	}
	compact, _ := json.Marshal(hit)
	c, err := scanCompact(compact)
	if err != nil {
		t.Fatal(err)
	}
	if !c.cached || c.elapsed != 99 {
		t.Errorf("compact answer: %+v", c)
	}
	other := sol
	other.Area = 43
	d, _ := scanAnswer(indent(other))
	if d.digest == a.digest {
		t.Error("answers with different areas hash alike")
	}
}

func TestParseProm(t *testing.T) {
	m := parseProm([]byte("# HELP x y\nmwld_solves_total{method=\"a\"} 3\nmwld_solves_total{method=\"b\"} 4\nmwld_queue_depth 2\n"))
	if m["mwld_solves_total"] != 7 || m["mwld_queue_depth"] != 2 {
		t.Errorf("parsed %v", m)
	}
}

func TestBacklogGrowing(t *testing.T) {
	if backlogGrowing([]int{0, 1, 0, 2, 1, 0, 1, 0}) {
		t.Error("steady backlog reported growing")
	}
	if !backlogGrowing([]int{0, 2, 5, 9, 14, 20, 27, 35}) {
		t.Error("rising backlog not reported growing")
	}
}

func TestSearchCapacity(t *testing.T) {
	// The search spans 0.1x to 1.5x the saturated throughput.
	for _, limit := range []float64{300, 900, 2400} {
		var tried []float64
		got := searchCapacity(2000, func(rate float64) bool {
			tried = append(tried, rate)
			return rate <= limit
		})
		if got > limit || got < limit*0.94 {
			t.Errorf("limit %g: capacity %g after %v", limit, got, tried)
		}
	}
	if got := searchCapacity(2000, func(float64) bool { return false }); got != 0 {
		t.Errorf("no passing rate: capacity %g, want 0", got)
	}
}

func spin(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; n++ {
	}
	return n
}

func TestCPUProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for i, st := range p.stacks {
		total += p.nanos[i]
		for _, fn := range st {
			if strings.HasSuffix(fn, ".spin") {
				found = true
			}
		}
	}
	if total < int64(100*time.Millisecond) || !found {
		t.Errorf("profile: %d ns over %d samples, spin seen %v", total, len(p.stacks), found)
	}
	for stack, want := range map[string]string{
		"runtime.mallocgc repro/internal/bind.SelectStats repro/internal/core.Allocate": "bind",
		"repro/internal/model.X repro/internal/sched.list repro/internal/core.Allocate": "sched",
		"runtime.scanobject runtime.gcDrain runtime.gcBgMarkWorker":                     "gc",
		"repro/internal/core.Allocate mwl.Solve":                                        "core",
		"encoding/json.Marshal main.main":                                               "other",
	} {
		if got := layerOf(strings.Fields(stack)); got != want {
			t.Errorf("layerOf(%s) = %s, want %s", stack, got, want)
		}
	}
}

var (
	buildOnce sync.Once
	buildDir  string // holds the mwld the tests run; removed by TestMain
	buildErr  error
)

// buildMwld builds mwld from this repository once per test binary.
func buildMwld(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		if buildDir, buildErr = os.MkdirTemp("", "perfbench-test-"); buildErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", filepath.Join(buildDir, "mwld"), "repro/cmd/mwld").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("%w\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building mwld: %v", buildErr)
	}
	return filepath.Join(buildDir, "mwld")
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// TestOwnerMatchesMwldRouting sends problems to the owner the client
// computes with internal/shard and checks that only that replica counts
// them as owned, and nobody forwards.
func TestOwnerMatchesMwldRouting(t *testing.T) {
	if testing.Short() {
		t.Skip("starts mwld processes")
	}
	bin := buildMwld(t)
	addrs, err := freeAddrs(3)
	if err != nil {
		t.Fatal(err)
	}
	var f fleet
	defer func() { f.stop() }()
	for _, a := range addrs {
		s, err := startServer(bin, a, 1, "-workers", "1", "-peers", strings.Join(addrs, ","), "-self", a)
		if err != nil {
			t.Fatal(err)
		}
		f = append(f, s)
	}
	if err := f.ready(); err != nil {
		t.Fatal(err)
	}
	urls := make([]string, len(f))
	for i, s := range f {
		urls[i] = s.addr
	}
	ring, err := shard.New(urls)
	if err != nil {
		t.Fatal(err)
	}
	seq := smallSeq(3, 3)
	c := newConn()
	defer c.close()
	for i := 0; i < 12; i++ {
		p, err := seq.get(i)
		if err != nil {
			t.Fatal(err)
		}
		owner := ring.Owner(p.key)
		before, err := scrapeAll(f)
		if err != nil {
			t.Fatal(err)
		}
		code, body, err := c.post(owner+"/v1/solve", p.body)
		if err != nil || code != 200 {
			t.Fatalf("problem %d: status %d, err %v: %s", i, code, err, body)
		}
		after, err := scrapeAll(f)
		if err != nil {
			t.Fatal(err)
		}
		for k, s := range f {
			owned := after[k]["mwld_shard_owned_total"] - before[k]["mwld_shard_owned_total"]
			fwd := after[k]["mwld_shard_forwarded_total"] - before[k]["mwld_shard_forwarded_total"]
			want := 0.0
			if s.addr == owner {
				want = 1
			}
			if owned != want || fwd != 0 {
				t.Errorf("problem %d: replica %s owned +%g forwarded +%g; client computed owner %s", i, s.addr, owned, fwd, owner)
			}
		}
	}
}

// TestSmoke runs every workload for a couple of seconds, untraced and
// traced, and checks that the answers were correct and every metric was
// printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts mwld processes")
	}
	bin := buildMwld(t)
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: wl, seed: 2, seconds: 2, trace: trace, mwld: bin, work: t.TempDir()}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			res.keep(defs)
			for _, d := range defs {
				if v := res.Metrics[d.name].Value; !trace && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", wl, d.name, v)
				}
			}
			if trace && res.Metrics["solve.cpu_ms_per_solve"].Value <= 0 {
				t.Errorf("%s: traced run profiled no solver CPU", wl)
			}
		}
	}
}
