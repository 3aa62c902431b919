package twostage

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/tgff"
)

func TestAllocateEmpty(t *testing.T) {
	dp, _, err := Allocate(dfg.New(), model.Default(), 0)
	if err != nil || len(dp.Instances) != 0 {
		t.Fatalf("%v %v", dp, err)
	}
}

func TestAllocateChainSharesSameLatency(t *testing.T) {
	// Three sequential adds of different widths: adders all have latency
	// 2, so they group onto one adder of the maximum width.
	d := dfg.New()
	var prev dfg.OpID = -1
	for _, w := range []int{8, 12, 6} {
		o := d.AddOp("", model.Add, model.AddSig(w))
		if prev >= 0 {
			d.AddDep(prev, o)
		}
		prev = o
	}
	lib := model.Default()
	dp, _, err := Allocate(d, lib, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.Verify(d, lib, 6); err != nil {
		t.Fatal(err)
	}
	if len(dp.Instances) != 1 || dp.Area(lib) != 12 {
		t.Fatalf("instances %d area %d, want 1/12", len(dp.Instances), dp.Area(lib))
	}
}

func TestNoCrossBandSharing(t *testing.T) {
	// A 20x18 multiply (5 cycles) followed by an 8x8 multiply (2
	// cycles): DPAlloc can share them with slack, but the two-stage
	// baseline must NOT (sharing would raise the small op's latency), so
	// it pays for two multipliers regardless of λ.
	d := dfg.New()
	a := d.AddOp("", model.Mul, model.Sig(20, 18))
	b := d.AddOp("", model.Mul, model.Sig(8, 8))
	d.AddDep(a, b)
	lib := model.Default()
	dp, _, err := Allocate(d, lib, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.Verify(d, lib, 100); err != nil {
		t.Fatal(err)
	}
	if len(dp.Instances) != 2 {
		t.Fatalf("two-stage shared across latency bands: %d instances", len(dp.Instances))
	}
	if dp.Area(lib) != 360+64 {
		t.Fatalf("area = %d, want 424", dp.Area(lib))
	}
}

func TestSameBandMultiplySharing(t *testing.T) {
	// 9x8 (latency 3) and 10x7 (latency 3): join 10x8 also latency 3 —
	// the baseline may share them when sequential.
	d := dfg.New()
	a := d.AddOp("", model.Mul, model.Sig(9, 8))
	b := d.AddOp("", model.Mul, model.Sig(10, 7))
	d.AddDep(a, b)
	lib := model.Default()
	dp, _, err := Allocate(d, lib, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.Verify(d, lib, 6); err != nil {
		t.Fatal(err)
	}
	if len(dp.Instances) != 1 {
		t.Fatalf("same-band sequential multiplies not shared: %d instances", len(dp.Instances))
	}
	if dp.Area(lib) != 80 { // 10x8
		t.Fatalf("area = %d, want 80", dp.Area(lib))
	}
}

func TestInfeasibleLambda(t *testing.T) {
	d := dfg.New()
	d.AddOp("", model.Mul, model.Sig(8, 8))
	if _, _, err := Allocate(d, model.Default(), 1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestOptimalBeatsGreedyOrMatches(t *testing.T) {
	// On random graphs the B&B result must never exceed the greedy
	// incumbent, and all results must verify.
	lib := model.Default()
	for seed := int64(0); seed < 40; seed++ {
		g, err := tgff.Generate(tgff.Config{N: 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		lmin, err := g.MinMakespan(lib)
		if err != nil {
			t.Fatal(err)
		}
		lambda := lmin + lmin/4
		dp, stats, err := Allocate(g, lib, lambda)
		if err != nil {
			t.Fatal(err)
		}
		if err := dp.Verify(g, lib, lambda); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lat := g.MinLatencies(lib)
		start := dp.Start
		greedyArea, _, err := greedyIncumbent(context.Background(), g, lib, start, lat)
		if err != nil {
			t.Fatal(err)
		}
		if dp.Area(lib) > greedyArea {
			t.Fatalf("seed %d: B&B area %d worse than greedy %d", seed, dp.Area(lib), greedyArea)
		}
		if stats.Capped {
			t.Logf("seed %d: node cap hit (%d nodes)", seed, stats.Nodes)
		}
	}
}

func TestLambdaInsensitiveAcrossBands(t *testing.T) {
	// The defining weakness: for a fixed schedule shape, relaxing λ far
	// beyond what serialization can use cannot buy cross-band sharing.
	d := dfg.New()
	a := d.AddOp("", model.Mul, model.Sig(20, 18))
	b := d.AddOp("", model.Mul, model.Sig(8, 8))
	d.AddDep(a, b)
	lib := model.Default()
	areas := make(map[int64]bool)
	for _, lambda := range []int{8, 20, 50} {
		dp, _, err := Allocate(d, lib, lambda)
		if err != nil {
			t.Fatal(err)
		}
		areas[dp.Area(lib)] = true
	}
	if len(areas) != 1 {
		t.Fatalf("areas vary with λ: %v", areas)
	}
}

func TestStage1RespectsDependenciesUnderPressure(t *testing.T) {
	lib := model.Default()
	for seed := int64(100); seed < 130; seed++ {
		g, err := tgff.Generate(tgff.Config{N: 14, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		lmin, err := g.MinMakespan(lib)
		if err != nil {
			t.Fatal(err)
		}
		// Exactly λ_min: stage 1 must still find a schedule.
		dp, _, err := Allocate(g, lib, lmin)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := dp.Verify(g, lib, lmin); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// countdownCtx is a context whose Err() starts returning Canceled after
// a fixed number of polls — a deterministic way to cancel "mid-solve"
// at exactly the Nth cancellation check, with no timing races.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left > 0 {
		c.left--
		return nil
	}
	return context.Canceled
}

func TestAllocateCtxCanceledInStage2(t *testing.T) {
	// A graph big enough that stage 2 visits many nodes; the countdown
	// lets the first few polls (stage-1 loop, greedy incumbent) pass and
	// trips inside the branch-and-bound binding loop.
	g, err := tgff.Generate(tgff.Config{N: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lib := model.Default()
	lmin, err := g.MinMakespan(lib)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &countdownCtx{Context: context.Background(), left: 4}
	dp, _, err := AllocateCtx(ctx, g, lib, lmin+lmin/3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if dp != nil {
		t.Fatal("canceled solve returned a datapath")
	}
}

func TestAllocateCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, err := tgff.Generate(tgff.Config{N: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := AllocateCtx(ctx, g, model.Default(), 50); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAllocateDeterministicClassGrowth solves problems whose stage-1
// search meets classes of equal utilisation pressure, where a
// map-order tie-break once returned different datapaths from run to
// run: every repeat must give one answer.
func TestAllocateDeterministicClassGrowth(t *testing.T) {
	lib := model.Default()
	cases := []struct {
		n     int
		seed  int64
		relax float64
	}{
		{19, 5016, 0}, {11, 5512, 0}, {15, 5564, 0}, {16, 5301, 0.1},
	}
	for _, c := range cases {
		d, err := tgff.Generate(tgff.Config{N: c.n, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		lmin, err := d.MinMakespan(lib)
		if err != nil {
			t.Fatal(err)
		}
		lambda := lmin + int(math.Round(float64(lmin)*c.relax))
		var first []byte
		for run := 0; run < 30; run++ {
			dp, _, err := Allocate(d, lib, lambda)
			if err != nil {
				t.Fatalf("N=%d seed=%d: %v", c.n, c.seed, err)
			}
			got, err := json.Marshal(dp)
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				first = got
			} else if !bytes.Equal(got, first) {
				t.Fatalf("N=%d seed=%d λ=%d: run %d differs from run 0", c.n, c.seed, lambda, run)
			}
		}
	}
}
