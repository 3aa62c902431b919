package wcg

import (
	"math/rand"
	"testing"

	"repro/internal/dfg"
	"repro/internal/model"
)

// fig2Graph builds the paper's Fig. 2 example: two multiplications
// (25x25 and 20x18) in sequence.
func fig2Graph(t *testing.T) (*dfg.Graph, *Graph) {
	t.Helper()
	d := dfg.New()
	o1 := d.AddOp("o1", model.Mul, model.Sig(25, 25))
	o2 := d.AddOp("o2", model.Mul, model.Sig(20, 18))
	if err := d.AddDep(o1, o2); err != nil {
		t.Fatal(err)
	}
	g, err := Build(d, model.Default())
	if err != nil {
		t.Fatal(err)
	}
	return d, g
}

func TestBuildFig2(t *testing.T) {
	_, g := fig2Graph(t)
	// Kinds: mul 20x18, mul 25x25, and the join mul 25x25 (same) —
	// join(25x25, 20x18) = 25x25, so exactly two kinds.
	if len(g.Kinds) != 2 {
		t.Fatalf("kinds = %v", g.Kinds)
	}
	// o1 (25x25) is only compatible with 25x25; o2 with both.
	if n := len(g.CompatKinds(0)); n != 1 {
		t.Errorf("o1 compatible with %d kinds", n)
	}
	if n := len(g.CompatKinds(1)); n != 2 {
		t.Errorf("o2 compatible with %d kinds", n)
	}
	// Latencies per the SONIC formula.
	if g.UpperLatency(0) != 7 || g.MinLatency(0) != 7 {
		t.Errorf("o1 latencies: upper %d min %d", g.UpperLatency(0), g.MinLatency(0))
	}
	if g.UpperLatency(1) != 7 || g.MinLatency(1) != 5 {
		t.Errorf("o2 latencies: upper %d min %d", g.UpperLatency(1), g.MinLatency(1))
	}
}

func TestCompatOpsAndCompatible(t *testing.T) {
	_, g := fig2Graph(t)
	var big int = -1
	for ki, k := range g.Kinds {
		if k.Sig == model.Sig(25, 25) {
			big = ki
		}
	}
	if big < 0 {
		t.Fatal("25x25 kind missing")
	}
	var ops []int
	g.CompatOpBits(big).ForEach(func(o int) { ops = append(ops, o) })
	if len(ops) != 2 || g.CompatOpCount(big) != 2 {
		t.Fatalf("O(25x25) = %v, count %d", ops, g.CompatOpCount(big))
	}
	if !g.Compatible(1, big) {
		t.Error("o2 must be compatible with 25x25")
	}
}

func TestDeleteMaxLatencyEdges(t *testing.T) {
	_, g := fig2Graph(t)
	if g.Reducible(0) {
		t.Error("o1 has a single latency level; must not be reducible")
	}
	if n := g.DeleteMaxLatencyEdges(0); n != 0 {
		t.Errorf("deletion on irreducible op deleted %d", n)
	}
	if !g.Reducible(1) {
		t.Fatal("o2 must be reducible")
	}
	if n := g.DeleteMaxLatencyEdges(1); n != 1 {
		t.Errorf("deleted %d edges, want 1", n)
	}
	if g.UpperLatency(1) != 5 {
		t.Errorf("upper latency after refinement = %d, want 5", g.UpperLatency(1))
	}
	if len(g.CompatKinds(1)) != 1 {
		t.Errorf("o2 has %d kinds left", len(g.CompatKinds(1)))
	}
	// Now irreducible; a second deletion must refuse.
	if n := g.DeleteMaxLatencyEdges(1); n != 0 {
		t.Errorf("second deletion removed %d edges", n)
	}
}

func TestUpperLatSlice(t *testing.T) {
	_, g := fig2Graph(t)
	lat := g.UpperLatSlice()
	if len(lat) != 2 || lat[0] != 7 || lat[1] != 7 {
		t.Errorf("upper latencies: %v", lat)
	}
}

func TestCloneIndependence(t *testing.T) {
	_, g := fig2Graph(t)
	c := g.Clone()
	c.DeleteMaxLatencyEdges(1)
	if len(g.CompatKinds(1)) != 2 {
		t.Error("clone deletion mutated original")
	}
	if g.NumHEdges() != 3 || c.NumHEdges() != 2 {
		t.Errorf("edge counts: orig %d clone %d", g.NumHEdges(), c.NumHEdges())
	}
}

func TestBuildWithKindsUncovered(t *testing.T) {
	d := dfg.New()
	d.AddOp("o", model.Mul, model.Sig(8, 8))
	_, err := BuildWithKinds(d, model.Default(), []model.Kind{{Class: model.Add, Sig: model.AddSig(8)}})
	if err == nil {
		t.Error("uncovered operation accepted")
	}
}

func TestIntervalRelations(t *testing.T) {
	a := Interval{Op: 0, Start: 0, End: 2}
	b := Interval{Op: 1, Start: 2, End: 4}
	c := Interval{Op: 2, Start: 1, End: 3}
	if !a.Before(b) || b.Before(a) {
		t.Error("Before broken")
	}
	if a.Overlaps(b) {
		t.Error("adjacent intervals must not overlap")
	}
	if !a.Overlaps(c) || !c.Overlaps(a) {
		t.Error("Overlaps must be symmetric and true for overlapping")
	}
}

// TestTransitiveOrientation checks the paper's §2.1 claim that C is a
// transitive orientation: if (a,b) and (b,c) are C edges then so is (a,c).
func TestTransitiveOrientation(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		var ivs []Interval
		for i := 0; i < 8; i++ {
			s := rnd.Intn(12)
			ivs = append(ivs, Interval{Op: dfg.OpID(i), Start: s, End: s + 1 + rnd.Intn(6)})
		}
		for _, a := range ivs {
			for _, b := range ivs {
				for _, c := range ivs {
					if a.Before(b) && b.Before(c) && !a.Before(c) {
						t.Fatalf("orientation not transitive: %v %v %v", a, b, c)
					}
				}
			}
		}
	}
}
