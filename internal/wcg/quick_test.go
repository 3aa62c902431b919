package wcg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/tgff"
)

// TestRefinementInvariantsQuick drives random refinement sequences over
// random graphs and checks the §2.4 state invariants after every step:
// the latency upper bound L_o never increases and never drops below the
// minimum latency, every operation keeps at least one compatible kind,
// and the total H-edge count strictly decreases on every accepted
// deletion.
func TestRefinementInvariantsQuick(t *testing.T) {
	lib := model.Default()
	f := func(seed int64, steps uint8) bool {
		g, err := tgff.Generate(tgff.Config{N: 8, Seed: seed})
		if err != nil {
			return false
		}
		w, err := Build(g, lib)
		if err != nil {
			return false
		}
		rnd := rand.New(rand.NewSource(seed ^ 0x5eed))
		prevUpper := make([]int, g.N())
		for o := range prevUpper {
			prevUpper[o] = w.UpperLatency(dfg.OpID(o))
		}
		for s := 0; s < int(steps%40); s++ {
			o := dfg.OpID(rnd.Intn(g.N()))
			edges := w.NumHEdges()
			reducible := w.Reducible(o)
			deleted := w.DeleteMaxLatencyEdges(o)
			if !reducible && deleted != 0 {
				t.Logf("deleted %d edges from irreducible op %d", deleted, o)
				return false
			}
			if reducible && deleted == 0 {
				t.Logf("reducible op %d deleted nothing", o)
				return false
			}
			if w.NumHEdges() != edges-deleted {
				return false
			}
			for i := 0; i < g.N(); i++ {
				id := dfg.OpID(i)
				if len(w.CompatKinds(id)) == 0 {
					t.Logf("op %d lost all kinds", i)
					return false
				}
				u := w.UpperLatency(id)
				if u > prevUpper[i] {
					t.Logf("op %d upper bound rose %d -> %d", i, prevUpper[i], u)
					return false
				}
				if u < w.MinLatency(id) {
					return false
				}
				prevUpper[i] = u
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
