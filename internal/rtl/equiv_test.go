package rtl_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/descend"
	"repro/internal/dfg"
	"repro/internal/fxsim"
	"repro/internal/model"
	"repro/internal/rtl"
	"repro/internal/tgff"
	"repro/internal/twostage"
	"repro/internal/vsim"
)

// runEquivalence generates Verilog for the datapath, elaborates the text
// through the netlist front end into the vsim concrete simulator, clocks
// it over `vectors` random input vectors and compares every sink output
// against the fixed-point reference evaluation. This executes the
// emitted source text, so it catches text-generation bugs that no
// in-memory check can; vsim evaluates with its own arithmetic, so it
// also catches a bug in the equiv prover.
func runEquivalence(t *testing.T, d *dfg.Graph, lib *model.Library, dp *datapath.Datapath, rnd *rand.Rand, vectors int) {
	t.Helper()
	src, err := rtl.Generate("dut", d, lib, dp)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	// Full netlist analysis, including the iface pass against the widths
	// the graph's operation specs demand: every module we simulate must
	// already be structurally sound.
	diags, err := rtl.AnalyzeGraph("dut", d, lib, dp)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if len(diags) > 0 {
		t.Fatalf("analyzer findings on generated module:\n%v\n%s", diags, src)
	}
	bench, err := vsim.NewBench(src)
	if err != nil {
		t.Fatalf("elaborate: %v\n%s", err, src)
	}
	if err := bench.Reset(); err != nil {
		t.Fatal(err)
	}
	ins, outs := rtl.Interface(d)
	makespan := dp.Makespan(lib)
	for v := 0; v < vectors; v++ {
		fxIn := make(fxsim.Inputs)
		rtlIn := make(map[string]uint64)
		for _, p := range ins {
			val := rnd.Uint64() & (1<<uint(p.Width) - 1)
			slots := fxIn[p.Op]
			slots[p.Slot] = val
			fxIn[p.Op] = slots
			rtlIn[p.Name] = val
		}
		want, err := fxsim.Reference(d, fxIn)
		if err != nil {
			t.Fatal(err)
		}
		got, cycles, err := bench.RunIteration(rtlIn, makespan+4)
		if err != nil {
			t.Fatalf("vector %d: %v\n%s", v, err, src)
		}
		if cycles != makespan {
			t.Fatalf("vector %d: took %d cycles, schedule says %d", v, cycles, makespan)
		}
		for _, p := range outs {
			if got[p.Name] != want[p.Op] {
				t.Fatalf("vector %d: %s = %d, reference %d\n%s",
					v, p.Name, got[p.Name], want[p.Op], src)
			}
		}
	}
}

// TestRTLEquivalenceRandom cross-checks generated hardware for every
// allocation method over random multiple-wordlength graphs.
func TestRTLEquivalenceRandom(t *testing.T) {
	lib := model.Default()
	rnd := rand.New(rand.NewSource(77))
	for _, n := range []int{1, 2, 4, 7, 10, 14} {
		graphs, err := tgff.Batch(n, 4, 5150, tgff.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for gi, g := range graphs {
			lmin, err := g.MinMakespan(lib)
			if err != nil {
				t.Fatal(err)
			}
			lambda := lmin + lmin/4
			methods := []struct {
				name string
				dp   func() (*datapath.Datapath, error)
			}{
				{"heuristic", func() (*datapath.Datapath, error) {
					dp, _, err := core.Allocate(g, lib, lambda, core.Options{})
					return dp, err
				}},
				{"twostage", func() (*datapath.Datapath, error) {
					dp, _, err := twostage.Allocate(g, lib, lambda)
					return dp, err
				}},
				{"descend", func() (*datapath.Datapath, error) {
					return descend.Allocate(g, lib, lambda)
				}},
			}
			for _, m := range methods {
				t.Run(fmt.Sprintf("n=%d/g=%d/%s", n, gi, m.name), func(t *testing.T) {
					dp, err := m.dp()
					if err != nil {
						t.Fatal(err)
					}
					runEquivalence(t, g, lib, dp, rnd, 3)
				})
			}
		}
	}
}

// TestRTLEquivalenceSingleCycle pins the latency-1 path: 4x4-bit
// multiplies take one cycle under the SONIC formula, which forces the
// combinational operand-select form of the functional unit — including a
// dependent chain at back-to-back steps and two operations sharing one
// single-cycle instance.
func TestRTLEquivalenceSingleCycle(t *testing.T) {
	lib := model.Default()
	g := dfg.New()
	a := g.AddOp("a", model.Mul, model.Sig(4, 4))
	b := g.AddOp("b", model.Mul, model.Sig(4, 4))
	c := g.AddOp("c", model.Mul, model.Sig(4, 4))
	if err := g.AddDep(a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.AddDep(b, c); err != nil {
		t.Fatal(err)
	}
	// One shared multiplier: a@0, b@1, c@2, all latency 1.
	dp := &datapath.Datapath{
		Start:  []int{0, 1, 2},
		InstOf: []int{0, 0, 0},
		Instances: []datapath.Instance{
			{Kind: model.Kind{Class: model.Mul, Sig: model.Sig(4, 4)}, Ops: []dfg.OpID{a, b, c}},
		},
	}
	if err := dp.Verify(g, lib, 3); err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(9))
	runEquivalence(t, g, lib, dp, rnd, 8)
}

// TestRTLEquivalenceMixedLatency shares a wide multiplier between a small
// and a large operation, so the small one executes with the instance's
// longer latency — the paper's Fig. 1(b) effect — and the RTL must still
// compute the small operation's own-width values.
func TestRTLEquivalenceMixedLatency(t *testing.T) {
	lib := model.Default()
	g := dfg.New()
	small := g.AddOp("small", model.Mul, model.Sig(4, 4))
	big := g.AddOp("big", model.Mul, model.Sig(12, 12))
	sum := g.AddOp("sum", model.Add, model.AddSig(16))
	if err := g.AddDep(small, sum); err != nil {
		t.Fatal(err)
	}
	if err := g.AddDep(big, sum); err != nil {
		t.Fatal(err)
	}
	kind := model.Kind{Class: model.Mul, Sig: model.Sig(12, 12)} // latency 3
	dp := &datapath.Datapath{
		Start:  []int{0, 3, 6},
		InstOf: []int{0, 0, 1},
		Instances: []datapath.Instance{
			{Kind: kind, Ops: []dfg.OpID{small, big}},
			{Kind: model.Kind{Class: model.Add, Sig: model.AddSig(16)}, Ops: []dfg.OpID{sum}},
		},
	}
	if err := dp.Verify(g, lib, 8); err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(10))
	runEquivalence(t, g, lib, dp, rnd, 8)
}
