package core_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/dfg"
	"repro/internal/expt"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/refine"
	"repro/internal/sched"
	"repro/internal/tgff"
)

var update = flag.Bool("update", false, "rewrite testdata/allocate.golden from the current solver")

const goldenPath = "testdata/allocate.golden"

// goldenCase is one pinned solve. Its key names the problem completely
// (tgff default config at N and Seed, λ, and any option that departs
// from the default), so other packages can replay the row from the
// file alone.
type goldenCase struct {
	method string // "dpalloc" or "pipelined"
	n      int
	seed   int64
	lambda int
	ii     int          // pipelined only
	limits sched.Limits // fixed N_y; nil = automatic search
	batch  int          // Options.RefineBatch
	ablate string       // "growth", "shrink", "closure", "victim" or ""
}

func (c goldenCase) key() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s/n=%d/seed=%d/lambda=%d", c.method, c.n, c.seed, c.lambda)
	if c.ii > 0 {
		fmt.Fprintf(&sb, "/ii=%d", c.ii)
	}
	if c.limits != nil {
		ys := make([]model.OpType, 0, len(c.limits))
		for y := range c.limits {
			ys = append(ys, y)
		}
		sort.Slice(ys, func(i, j int) bool { return ys[i] < ys[j] })
		parts := make([]string, len(ys))
		for i, y := range ys {
			parts[i] = fmt.Sprintf("%s:%d", y, c.limits[y])
		}
		fmt.Fprintf(&sb, "/limits=%s", strings.Join(parts, ","))
	}
	if c.batch > 0 {
		fmt.Fprintf(&sb, "/batch=%d", c.batch)
	}
	if c.ablate != "" {
		fmt.Fprintf(&sb, "/ablate=%s", c.ablate)
	}
	return sb.String()
}

// goldenCases is the pinned grid: the main tgff sweep across the
// paper-exact and the batched (≥ core.BatchMinOps) regimes at three λ
// relaxations, plus rows for a fixed refinement batch, fixed resource
// bounds, every ablation switch and the pipelined allocator.
func goldenCases(t testing.TB) []goldenCase {
	lib := model.Default()
	type graph struct {
		n    int
		seed int64
		d    *dfg.Graph
		lmin int
	}
	graphs := map[[2]int64]graph{}
	get := func(n int, seed int64) graph {
		k := [2]int64{int64(n), seed}
		if g, ok := graphs[k]; ok {
			return g
		}
		d, err := tgff.Generate(tgff.Config{N: n, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		lmin, err := d.MinMakespan(lib)
		if err != nil {
			t.Fatal(err)
		}
		g := graph{n, seed, d, lmin}
		graphs[k] = g
		return g
	}
	relaxes := []float64{0, 0.2, 0.4}
	var cases []goldenCase
	for _, n := range []int{8, 24, 60, 100, 160, 200, 260} {
		for _, seed := range []int64{1, 2} {
			g := get(n, seed)
			for _, r := range relaxes {
				cases = append(cases, goldenCase{method: "dpalloc", n: n, seed: seed, lambda: expt.Lambda(g.lmin, r)})
			}
		}
	}
	for _, n := range []int{24, 100, 200} {
		g := get(n, 1)
		for _, r := range relaxes[:2] {
			cases = append(cases, goldenCase{method: "dpalloc", n: n, seed: 1, lambda: expt.Lambda(g.lmin, r), batch: 4})
		}
	}
	for _, n := range []int{24, 60} {
		g := get(n, 1)
		count := map[model.OpType]int{}
		for _, o := range g.d.Ops() {
			count[o.Spec.Type.HardwareClass()]++
		}
		limits := sched.Limits{}
		for y, c := range count {
			limits[y] = (c + 2) / 3
		}
		for _, r := range relaxes[:2] {
			cases = append(cases, goldenCase{method: "dpalloc", n: n, seed: 1, lambda: expt.Lambda(g.lmin, r), limits: limits})
		}
	}
	for _, n := range []int{24, 60} {
		g := get(n, 2)
		for _, ab := range []string{"growth", "shrink", "closure", "victim"} {
			cases = append(cases, goldenCase{method: "dpalloc", n: n, seed: 2, lambda: expt.Lambda(g.lmin, 0.2), ablate: ab})
		}
	}
	for _, n := range []int{8, 16, 24} {
		for _, seed := range []int64{1, 2} {
			g := get(n, seed)
			ii := pipeline.MinII(g.d, lib)
			for _, r := range relaxes {
				for _, dii := range []int{0, 4} {
					cases = append(cases, goldenCase{method: "pipelined", n: n, seed: seed, lambda: expt.Lambda(g.lmin, r), ii: ii + dii})
				}
			}
		}
	}
	return cases
}

// solveGolden runs one case and renders its golden row: area, every
// Stats counter, and the SHA-256 of the datapath's JSON encoding. A
// failed solve records its error text instead.
func solveGolden(c goldenCase) string {
	lib := model.Default()
	d, err := tgff.Generate(tgff.Config{N: c.n, Seed: c.seed})
	if err != nil {
		return c.key() + " error " + err.Error()
	}
	var (
		dp *datapath.Datapath
		st core.Stats
	)
	switch c.method {
	case "pipelined":
		var pst pipeline.Stats
		dp, pst, err = pipeline.Allocate(d, lib, c.lambda, c.ii, pipeline.Options{})
		st = core.Stats{Iterations: pst.Iterations, Refinements: pst.Refinements, Kinds: pst.Kinds}
	default:
		opt := core.Options{Limits: c.limits, RefineBatch: c.batch}
		switch c.ablate {
		case "growth":
			opt.DisableGrowth = true
		case "shrink":
			opt.DisableShrink = true
		case "closure":
			opt.DisableClosure = true
		case "victim":
			opt.Victim = refine.FirstReducible
		}
		dp, st, err = core.Allocate(d, lib, c.lambda, opt)
	}
	if err != nil {
		return c.key() + " error " + err.Error()
	}
	djson, err := json.Marshal(dp)
	if err != nil {
		return c.key() + " error " + err.Error()
	}
	return fmt.Sprintf("%s area=%d iterations=%d refinements=%d edges=%d kinds=%d configs=%d merges=%d evals=%d sha256=%x",
		c.key(), dp.Area(lib), st.Iterations, st.Refinements, st.EdgesDeleted, st.Kinds, st.Configs, st.Merges, st.Evals,
		sha256.Sum256(djson))
}

// TestAllocateGolden pins the solver's output bytes: every row of
// testdata/allocate.golden must be reproduced exactly. Regenerate with
// `go test ./internal/core -run TestAllocateGolden -update` only for a
// deliberate change of the algorithm's answers.
func TestAllocateGolden(t *testing.T) {
	cases := goldenCases(t)
	got := make([]string, len(cases))
	for i, c := range cases {
		got[i] = solveGolden(c)
	}
	if *update {
		var sb strings.Builder
		sb.WriteString("# DPAlloc output pinned per problem: key area stats sha256(datapath JSON).\n")
		sb.WriteString("# Regenerate: go test ./internal/core -run TestAllocateGolden -update\n")
		for _, row := range got {
			sb.WriteString(row)
			sb.WriteByte('\n')
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Fatalf("golden has %d rows, grid has %d; regenerate with -update", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d differs:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

func readGolden(t *testing.T) []string {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			rows = append(rows, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}
