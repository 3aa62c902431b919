package twostage_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/descend"
	"repro/internal/dfg"
	"repro/internal/expt"
	"repro/internal/model"
	"repro/internal/tgff"
	"repro/internal/twostage"
)

var update = flag.Bool("update", false, "rewrite testdata/twostage.golden from the current baselines")

const goldenPath = "testdata/twostage.golden"

// fallingMulLibrary is a cost model whose multiplier latency falls as
// the operands widen (adders keep the paper's 2 cycles). It breaks the
// usual monotonicity on purpose: a wordlength-blind schedule must use
// each operation's own latency, not an upper bound over wider kinds.
func fallingMulLibrary() *model.Library {
	def := model.Default()
	return &model.Library{
		Latency: func(k model.Kind) int {
			if k.Class == model.Add {
				return 2
			}
			return max(1, 7-(k.Sig.Hi+k.Sig.Lo)/8)
		},
		Area: def.Area,
	}
}

func goldenGraph(n int, seed int64, shape tgff.Shape, lib *model.Library) (*dfg.Graph, int, error) {
	d, err := tgff.Generate(tgff.Config{N: n, Seed: seed, Shape: shape})
	if err != nil {
		return nil, 0, err
	}
	lmin, err := d.MinMakespan(lib)
	return d, lmin, err
}

func shapeName(s tgff.Shape) string {
	if s == tgff.ShapeForkJoin {
		return "forkjoin"
	}
	return "layered"
}

// goldenRows renders every pinned row: the two-stage and descending-
// wordlength baselines on the paper-sized tgff sweep (area, Stats and
// the SHA-256 of the datapath JSON), the stage-1 schedule's start
// vector digest up to 260 operations on two graph shapes, and one
// stage-1 schedule under fallingMulLibrary.
func goldenRows(t testing.TB) []string {
	lib := model.Default()
	relaxes := []float64{0, 0.2, 0.4}
	var rows []string
	for _, n := range []int{4, 8, 12, 16, 20, 24} {
		for _, seed := range []int64{1, 2} {
			d, lmin, err := goldenGraph(n, seed, tgff.ShapeLayered, lib)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range relaxes {
				lambda := expt.Lambda(lmin, r)
				key := fmt.Sprintf("n=%d/seed=%d/lambda=%d", n, seed, lambda)
				dp, st, err := twostage.Allocate(d, lib, lambda)
				if err != nil {
					rows = append(rows, "twostage/"+key+" error "+err.Error())
				} else {
					rows = append(rows, fmt.Sprintf("twostage/%s area=%d configs=%d nodes=%d capped=%t sha256=%s",
						key, dp.Area(lib), st.Configs, st.Nodes, st.Capped, digest(t, dp)))
				}
				dp, err = descend.Allocate(d, lib, lambda)
				if err != nil {
					rows = append(rows, "descend/"+key+" error "+err.Error())
				} else {
					rows = append(rows, fmt.Sprintf("descend/%s area=%d sha256=%s", key, dp.Area(lib), digest(t, dp)))
				}
			}
		}
	}
	schedule := func(prefix string, d *dfg.Graph, lib *model.Library, lambda int) string {
		start, err := twostage.WordlengthBlindSchedule(d, lib, lambda)
		if err != nil {
			return prefix + " error " + err.Error()
		}
		return fmt.Sprintf("%s sha256=%s", prefix, digest(t, start))
	}
	for _, shape := range []tgff.Shape{tgff.ShapeLayered, tgff.ShapeForkJoin} {
		for _, n := range []int{4, 24, 60, 100, 160, 200, 260} {
			for _, seed := range []int64{1, 2} {
				d, lmin, err := goldenGraph(n, seed, shape, lib)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range relaxes {
					lambda := expt.Lambda(lmin, r)
					rows = append(rows, schedule(fmt.Sprintf("schedule/%s/n=%d/seed=%d/lambda=%d",
						shapeName(shape), n, seed, lambda), d, lib, lambda))
				}
			}
		}
	}
	falling := fallingMulLibrary()
	d, lmin, err := goldenGraph(60, 1, tgff.ShapeLayered, falling)
	if err != nil {
		t.Fatal(err)
	}
	lambda := expt.Lambda(lmin, 0.2)
	rows = append(rows, schedule(fmt.Sprintf("schedule/fallingmul/n=60/seed=1/lambda=%d", lambda), d, falling, lambda))
	return rows
}

func digest(t testing.TB, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// TestTwoStageGolden pins the two-stage and descending-wordlength
// baselines and their shared wordlength-blind schedule: every row of
// testdata/twostage.golden must be reproduced exactly. Regenerate with
// `go test ./internal/twostage -run TestTwoStageGolden -update` only for
// a deliberate change of the baselines' answers.
func TestTwoStageGolden(t *testing.T) {
	got := goldenRows(t)
	if *update {
		var sb strings.Builder
		sb.WriteString("# Two-stage baselines pinned per problem: key area stats sha256(datapath JSON), stage-1 sha256(start vector JSON).\n")
		sb.WriteString("# Regenerate: go test ./internal/twostage -run TestTwoStageGolden -update\n")
		for _, row := range got {
			sb.WriteString(row)
			sb.WriteByte('\n')
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d rows, grid has %d; regenerate with -update", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d differs:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
