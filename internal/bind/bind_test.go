package bind

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/wcg"
)

func build(t *testing.T, d *dfg.Graph) *wcg.Graph {
	t.Helper()
	g, err := wcg.Build(d, model.Default())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func asap(t *testing.T, g *wcg.Graph) []int {
	t.Helper()
	r, err := new(sched.State).List(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r.Start
}

// checkBinding verifies the structural legality of a binding: every op in
// exactly one clique, Eqn. 4 holds per clique, and members are pairwise
// time-compatible under reserved intervals.
func checkBinding(t *testing.T, g *wcg.Graph, start []int, b *Binding) {
	t.Helper()
	seen := make([]int, g.D.N())
	for ci, k := range b.Cliques {
		if len(k.Ops) == 0 {
			t.Fatalf("empty clique %d", ci)
		}
		for _, o := range k.Ops {
			seen[o]++
			if b.CliqueOf[o] != ci {
				t.Fatalf("CliqueOf[%d] = %d, op listed in clique %d", o, b.CliqueOf[o], ci)
			}
			if !g.Compatible(o, k.Kind) {
				t.Fatalf("Eqn. 4 violated: op %d not compatible with kind %v", o, g.Kinds[k.Kind])
			}
		}
		ivs := make([]wcg.Interval, len(k.Ops))
		for i, o := range k.Ops {
			ivs[i] = wcg.Interval{Op: o, Start: start[o], End: start[o] + g.UpperLatency(o)}
		}
		if !isChain(ivs) {
			t.Fatalf("clique %d has overlapping reserved intervals", ci)
		}
	}
	for o, c := range seen {
		if c != 1 {
			t.Fatalf("operation %d covered %d times", o, c)
		}
	}
}

// isChain reports whether the intervals are pairwise disjoint, i.e. form
// a clique of G'(O, C). The input slice is reordered in place.
func isChain(ivs []wcg.Interval) bool {
	slices.SortFunc(ivs, cmpInterval)
	for i := 1; i < len(ivs); i++ {
		if !ivs[i-1].Before(ivs[i]) {
			return false
		}
	}
	return true
}

// selectOpt binds with a fresh scratch, so the Binding owns its memory.
func selectOpt(g *wcg.Graph, start []int, opt Options) (*Binding, error) {
	b, _, err := new(Scratch).Select(g, start, opt)
	return b, err
}

func TestSelectChainShares(t *testing.T) {
	// Three sequential 8x8 multiplies must share a single multiplier.
	d := dfg.New()
	var prev dfg.OpID = -1
	for i := 0; i < 3; i++ {
		o := d.AddOp("", model.Mul, model.Sig(8, 8))
		if prev >= 0 {
			d.AddDep(prev, o)
		}
		prev = o
	}
	g := build(t, d)
	start := asap(t, g)
	b, err := selectOpt(g, start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkBinding(t, g, start, b)
	if len(b.Cliques) != 1 {
		t.Fatalf("want 1 clique, got %d", len(b.Cliques))
	}
	if b.Area(g) != 64 {
		t.Fatalf("area = %d, want 64", b.Area(g))
	}
}

func TestSelectParallelSplits(t *testing.T) {
	// Two independent multiplies overlap under ASAP: two resources.
	d := dfg.New()
	d.AddOp("", model.Mul, model.Sig(8, 8))
	d.AddOp("", model.Mul, model.Sig(8, 8))
	g := build(t, d)
	start := asap(t, g)
	b, err := selectOpt(g, start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkBinding(t, g, start, b)
	if len(b.Cliques) != 2 {
		t.Fatalf("want 2 cliques, got %d", len(b.Cliques))
	}
}

func TestSelectMixedWordlengthSharing(t *testing.T) {
	// A 20x18 multiply followed by an 8x8 multiply: both fit on the
	// 20x18 resource (the 8x8 runs slower there, but scheduling reserved
	// its upper bound), so one resource suffices and is cheaper than two
	// dedicated ones (360 < 360+64).
	d := dfg.New()
	a := d.AddOp("", model.Mul, model.Sig(20, 18))
	b0 := d.AddOp("", model.Mul, model.Sig(8, 8))
	d.AddDep(a, b0)
	g := build(t, d)
	start := asap(t, g)
	b, err := selectOpt(g, start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkBinding(t, g, start, b)
	if len(b.Cliques) != 1 {
		t.Fatalf("want shared resource, got %d cliques (area %d)", len(b.Cliques), b.Area(g))
	}
	if got := g.Kinds[b.Cliques[0].Kind].Sig; got != model.Sig(20, 18) {
		t.Fatalf("bound kind = %v, want 20x18", got)
	}
	// Bound latency of the small op is the big resource's latency.
	if b.BoundLatency(g, b0) != 5 {
		t.Fatalf("bound latency = %d, want 5", b.BoundLatency(g, b0))
	}
}

func TestShrinkSelectsCheapestKind(t *testing.T) {
	// One lonely 8x8 multiply in a graph that also extracted a 16x16
	// kind: after shrink its clique must sit on the 8x8 kind.
	d := dfg.New()
	small := d.AddOp("", model.Mul, model.Sig(8, 8))
	big := d.AddOp("", model.Mul, model.Sig(16, 16))
	g := build(t, d)
	start := asap(t, g)
	b, err := selectOpt(g, start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkBinding(t, g, start, b)
	if g.Kinds[b.KindOf(small)].Sig != model.Sig(8, 8) {
		t.Errorf("small op on kind %v", g.Kinds[b.KindOf(small)])
	}
	if g.Kinds[b.KindOf(big)].Sig != model.Sig(16, 16) {
		t.Errorf("big op on kind %v", g.Kinds[b.KindOf(big)])
	}
}

func TestGrowthMergesCliques(t *testing.T) {
	// Construct a case where greedy-without-growth leaves two cliques
	// that a later selection could absorb. Growth must produce no more
	// cliques than no-growth, and both must be legal.
	rnd := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		d := randomDAG(rnd, 2+rnd.Intn(14))
		g := build(t, d)
		start := asap(t, g)
		withG, err := selectOpt(g, start, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkBinding(t, g, start, withG)
		noG, err := selectOpt(g, start, Options{DisableGrowth: true})
		if err != nil {
			t.Fatal(err)
		}
		checkBinding(t, g, start, noG)
		if withG.Area(g) > noG.Area(g) {
			t.Fatalf("growth increased area: %d > %d", withG.Area(g), noG.Area(g))
		}
	}
}

func TestAreaNeverExceedsDedicated(t *testing.T) {
	// Binding with sharing must never cost more than one minimal kind
	// per operation (shrink guarantees each clique costs at most the
	// cheapest kind covering all members... which for singletons is the
	// minimal kind).
	rnd := rand.New(rand.NewSource(37))
	for trial := 0; trial < 100; trial++ {
		d := randomDAG(rnd, 1+rnd.Intn(16))
		g := build(t, d)
		start := asap(t, g)
		b, err := selectOpt(g, start, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkBinding(t, g, start, b)
		var dedicated int64
		for _, o := range d.Ops() {
			dedicated += g.Lib.Area(o.Spec.MinKind())
		}
		if b.Area(g) > dedicated {
			t.Fatalf("bound area %d exceeds dedicated %d", b.Area(g), dedicated)
		}
	}
}

func TestSelectBadInput(t *testing.T) {
	d := dfg.New()
	d.AddOp("", model.Add, model.AddSig(8))
	g := build(t, d)
	if _, err := selectOpt(g, []int{0, 1}, Options{}); err == nil {
		t.Error("mismatched start slice accepted")
	}
}

func TestBetterRatio(t *testing.T) {
	// 3 ops at cost 6 (0.5/unit) beats 2 ops at cost 5 (0.4/unit).
	if !betterRatio(3, 6, 2, 5) {
		t.Error("ratio comparison broken")
	}
	if betterRatio(2, 5, 3, 6) {
		t.Error("ratio comparison asymmetric")
	}
	// Equal ratios: cheaper wins.
	if !betterRatio(1, 2, 2, 4) {
		t.Error("tie must prefer lower cost")
	}
	if betterRatio(2, 4, 1, 2) {
		t.Error("tie must prefer lower cost (reverse)")
	}
}

func randomDAG(rnd *rand.Rand, n int) *dfg.Graph {
	g := dfg.New()
	for i := 0; i < n; i++ {
		if rnd.Intn(2) == 0 {
			g.AddOp("", model.Add, model.AddSig(4+rnd.Intn(20)))
		} else {
			g.AddOp("", model.Mul, model.Sig(4+rnd.Intn(20), 4+rnd.Intn(20)))
		}
	}
	for i := 1; i < n; i++ {
		for k := 0; k < 2; k++ {
			if rnd.Intn(3) == 0 {
				g.AddDep(dfg.OpID(rnd.Intn(i)), dfg.OpID(i))
			}
		}
	}
	return g
}
