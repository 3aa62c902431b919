package main

import (
	"regexp"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkTable2ILP/lambda=1.00-8         	       1	    991617 ns/op	         0 capped
BenchmarkTable2ILP/lambda=1.15-8         	       1	2206540036 ns/op	         0 capped
BenchmarkFig3/relax=0%-8                 	       2	 291163000 ns/op	      12.5 penalty-%
BenchmarkAllocateScaling/N=100-8         	       1	  51234567 ns/op	 1024 B/op	      17 allocs/op
PASS
ok  	repro	15.702s
`

func TestParseBench(t *testing.T) {
	rep, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "repro" {
		t.Fatalf("header: %+v", rep)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(rep.Benchmarks))
	}
	b, ok := rep.Benchmarks["BenchmarkTable2ILP/lambda=1.00"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", rep.Benchmarks)
	}
	if b.NsPerOp != 991617 || b.Iterations != 1 {
		t.Fatalf("%+v", b)
	}
	if b.Metrics["capped"] != 0 {
		t.Fatalf("custom metric lost: %+v", b)
	}
	fig := rep.Benchmarks["BenchmarkFig3/relax=0%"]
	if fig.Metrics["penalty-%"] != 12.5 {
		t.Fatalf("%+v", fig)
	}
	alloc := rep.Benchmarks["BenchmarkAllocateScaling/N=100"]
	if alloc.BytesPerOp != 1024 || alloc.AllocsPerOp != 17 {
		t.Fatalf("%+v", alloc)
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  	repro	15.702s",
		"BenchmarkBroken abc ns/op",
		"BenchmarkNoResult-8",
		"--- FAIL: TestSomething",
	} {
		if _, _, ok := parseLine(line); ok {
			t.Errorf("accepted %q", line)
		}
	}
}

func mkReport(ns map[string]float64) *Report {
	r := &Report{Schema: 1, Benchmarks: map[string]Benchmark{}}
	for name, v := range ns {
		r.Benchmarks[name] = Benchmark{Iterations: 1, NsPerOp: v}
	}
	return r
}

func TestCompareReports(t *testing.T) {
	base := mkReport(map[string]float64{
		"BenchmarkTable2ILP/lambda=1.00": 1000,
		"BenchmarkFig5ILP/N=8":           2000,
		"BenchmarkAblationGrowth":        500, // filtered out by match
		"BenchmarkGone":                  100, // absent from new
	})
	cur := mkReport(map[string]float64{
		"BenchmarkTable2ILP/lambda=1.00": 1200, // +20%: under threshold
		"BenchmarkFig5ILP/N=8":           2600, // +30%: regression
		"BenchmarkAblationGrowth":        5000, // would regress, but unmatched
		"BenchmarkNew":                   1,    // absent from baseline
	})
	re := regexp.MustCompile(`^BenchmarkTable2|^BenchmarkFig`)
	regs, report := compareReports(base, cur, re, 25, 0)
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v\n%s", regs, report)
	}
	if regs[0].Name != "BenchmarkFig5ILP/N=8" || regs[0].Percent < 29 || regs[0].Percent > 31 {
		t.Fatalf("%+v", regs[0])
	}
	if !strings.Contains(report, "1 benchmark unit(s) regressed") {
		t.Fatalf("report: %s", report)
	}
}

// TestCompareReportsMemoryGate: B/op and allocs/op regressions trip the
// same threshold, and a baseline recorded without -benchmem (zeros)
// leaves the memory units ungated instead of dividing by zero.
func TestCompareReportsMemoryGate(t *testing.T) {
	base := &Report{Schema: 1, Benchmarks: map[string]Benchmark{
		"BenchmarkAnneal":  {Iterations: 1, NsPerOp: 1000, BytesPerOp: 10_000, AllocsPerOp: 100},
		"BenchmarkNoMem":   {Iterations: 1, NsPerOp: 1000},
		"BenchmarkHealthy": {Iterations: 1, NsPerOp: 1000, BytesPerOp: 10_000, AllocsPerOp: 100},
	}}
	cur := &Report{Schema: 1, Benchmarks: map[string]Benchmark{
		"BenchmarkAnneal":  {Iterations: 1, NsPerOp: 1100, BytesPerOp: 20_000, AllocsPerOp: 200}, // mem doubled
		"BenchmarkNoMem":   {Iterations: 1, NsPerOp: 1100, BytesPerOp: 99_999, AllocsPerOp: 999}, // no mem baseline
		"BenchmarkHealthy": {Iterations: 1, NsPerOp: 900, BytesPerOp: 9_000, AllocsPerOp: 90},
	}}
	regs, report := compareReports(base, cur, nil, 25, 0)
	if len(regs) != 2 {
		t.Fatalf("regressions = %+v\n%s", regs, report)
	}
	units := map[string]bool{}
	for _, r := range regs {
		if r.Name != "BenchmarkAnneal" {
			t.Fatalf("unexpected regression %+v", r)
		}
		units[r.Unit] = true
	}
	if !units["B/op"] || !units["allocs/op"] {
		t.Fatalf("memory units not gated: %+v", regs)
	}
}

func TestCompareReportsClean(t *testing.T) {
	base := mkReport(map[string]float64{"BenchmarkTable2ILP/lambda=1.00": 1000})
	cur := mkReport(map[string]float64{"BenchmarkTable2ILP/lambda=1.00": 800})
	regs, report := compareReports(base, cur, nil, 25, 0)
	if len(regs) != 0 {
		t.Fatalf("%+v", regs)
	}
	if !strings.Contains(report, "no ns/op, B/op or allocs/op regression") {
		t.Fatalf("report: %s", report)
	}
}

func TestCompareReportsNoiseFloor(t *testing.T) {
	base := mkReport(map[string]float64{
		"BenchmarkFig5Heuristic/N=2": 30_000,    // 30µs: under the floor
		"BenchmarkTable2ILP/big":     2_000_000, // gated
	})
	cur := mkReport(map[string]float64{
		"BenchmarkFig5Heuristic/N=2": 90_000, // 3×, but noise-floored
		"BenchmarkTable2ILP/big":     2_100_000,
	})
	regs, report := compareReports(base, cur, nil, 25, 1_000_000)
	if len(regs) != 0 {
		t.Fatalf("noise-floored benchmark gated: %+v\n%s", regs, report)
	}
	if !strings.Contains(report, "noise floor") {
		t.Fatalf("report: %s", report)
	}
}

func TestParseBenchFoldsRepeatedSamples(t *testing.T) {
	const in = `cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkAllocateScaling/N=100-2   	 20	  50000000 ns/op	 700000 B/op	 4000 allocs/op	 3.0 mean-area
BenchmarkAllocateScaling/N=100-2   	 22	  90000000 ns/op	 600000 B/op	 4200 allocs/op	 1.0 mean-area
BenchmarkAllocateScaling/N=100-2   	 24	  60000000 ns/op	 800000 B/op	 4100 allocs/op	 2.0 mean-area
BenchmarkOnce-2                    	  1	      1000 ns/op
`
	rep, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOMAXPROCS != 2 {
		t.Fatalf("gomaxprocs = %d, want 2", rep.GOMAXPROCS)
	}
	b := rep.Benchmarks["BenchmarkAllocateScaling/N=100"]
	if b.Samples != 3 || b.Iterations != 22 || b.NsPerOp != 60000000 || b.BytesPerOp != 700000 ||
		b.AllocsPerOp != 4100 || b.Metrics["mean-area"] != 2 {
		t.Fatalf("want the per-unit median of 3 samples, got %+v", b)
	}
	if once := rep.Benchmarks["BenchmarkOnce"]; once.Samples != 1 || once.NsPerOp != 1000 {
		t.Fatalf("single sample: %+v", once)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even-count median = %v, want 2.5", got)
	}
}
