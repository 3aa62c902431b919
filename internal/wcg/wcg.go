// Package wcg implements the wordlength compatibility graph G(V, E) of the
// paper (§2.1): V = O ∪ R partitions into operations and
// resource-wordlength kinds; E = C ∪ H partitions into directed
// time-compatibility edges between operations (a transitive orientation
// derived from the schedule) and undirected operation–kind edges recording
// which kinds can currently execute which operations.
//
// H edges are the mutable state of Algorithm DPAlloc: refinement deletes
// {o, r} edges to shrink the latency upper bound L_o of an operation.
// C edges are never stored; they are implied by reserved execution
// intervals [start(o), start(o)+L_o), which form an interval order, so the
// orientation is transitive by construction (Golumbic [11]) and maximum
// cliques of a kind's compatibility subgraph are maximum sets of pairwise
// disjoint intervals, found in linear time after sorting (package bind).
//
// The H edges are maintained incrementally: bit sets index both sides of
// the bipartite adjacency (op→kinds and kind→ops), and the per-operation
// latency bounds L_o and min ℓ and the per-kind operation counts are
// cached and repaired on deletion. Membership tests and edge counts are
// O(1) instead of adjacency-list scans — the difference between 100- and
// 1000-node graphs being tractable.
package wcg

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/dfg"
	"repro/internal/model"
)

// Graph is a wordlength compatibility graph bound to one sequencing graph
// and one extracted kind set.
type Graph struct {
	D     *dfg.Graph
	Lib   *model.Library
	Kinds []model.Kind

	// h[o] lists indices into Kinds compatible with operation o, in
	// extraction order (area ascending within class). Invariant: never
	// empty for a valid graph.
	h [][]int
	// hBits[o] mirrors h[o] as a bit set over kind indices.
	hBits []bitset.Set
	// opBits[k] is O(r) as a bit set over operation IDs.
	opBits []bitset.Set
	// opCount[k] = |O(r)| is maintained incrementally so counting never
	// needs a popcount.
	opCount []int
	// lat[k] and area[k] cache Lib.Latency(Kinds[k]) and
	// Lib.Area(Kinds[k]).
	lat  []int
	area []int64
	// byArea lists the kind indices by area ascending, ties by index.
	byArea []int
	// upper[o] and min[o] cache L_o and min ℓ over o's current kinds.
	upper []int
	min   []int
	// edges counts the H edges remaining.
	edges int
	// topo memoizes D.TopoOrder(): D is immutable for the lifetime of
	// the compatibility graph, and the scheduler asks every iteration.
	topo []dfg.OpID
}

// TopoOrder returns a topological order of the bound sequencing graph,
// memoized across calls. The slice must not be modified.
func (g *Graph) TopoOrder() ([]dfg.OpID, error) {
	if g.topo == nil {
		order, err := g.D.TopoOrder()
		if err != nil {
			return nil, err
		}
		g.topo = order
	}
	return g.topo, nil
}

// Build constructs the initial compatibility graph: kinds extracted from
// the operation set with join closure, and an H edge {o, r} exactly when
// kind r covers operation o ("of sufficient wordlength ... and of the
// same type").
func Build(d *dfg.Graph, lib *model.Library) (*Graph, error) {
	kinds := model.ExtractKinds(d.Specs(), lib)
	return BuildWithKinds(d, lib, kinds)
}

// BuildWithKinds constructs the compatibility graph over a caller-supplied
// kind set (used by the no-closure ablation). Every operation must be
// covered by at least one kind.
func BuildWithKinds(d *dfg.Graph, lib *model.Library, kinds []model.Kind) (*Graph, error) {
	g := &Graph{D: d, Lib: lib, Kinds: kinds}
	g.lat = make([]int, len(kinds))
	g.area = make([]int64, len(kinds))
	for i, k := range kinds {
		g.lat[i] = lib.Latency(k)
		g.area[i] = lib.Area(k)
		if g.lat[i] < 1 {
			return nil, fmt.Errorf("wcg: kind %v has non-positive latency", k)
		}
	}
	g.byArea = make([]int, len(kinds))
	for i := range g.byArea {
		g.byArea[i] = i
	}
	sort.SliceStable(g.byArea, func(i, j int) bool { return g.area[g.byArea[i]] < g.area[g.byArea[j]] })
	n := d.N()
	g.h = make([][]int, n)
	g.hBits = make([]bitset.Set, n)
	g.opBits = make([]bitset.Set, len(kinds))
	for ki := range kinds {
		g.opBits[ki] = bitset.New(n)
	}
	g.opCount = make([]int, len(kinds))
	g.upper = make([]int, n)
	g.min = make([]int, n)
	for _, o := range d.Ops() {
		g.hBits[o.ID] = bitset.New(len(kinds))
		for ki, k := range kinds {
			if k.Covers(o.Spec.Type, o.Spec.Sig) {
				g.h[o.ID] = append(g.h[o.ID], ki)
				g.hBits[o.ID].Add(ki)
				g.opBits[ki].Add(int(o.ID))
				g.opCount[ki]++
				g.edges++
			}
		}
		if len(g.h[o.ID]) == 0 {
			return nil, fmt.Errorf("wcg: operation %d (%v) has no covering kind", o.ID, o.Spec)
		}
		g.recomputeBounds(o.ID)
	}
	return g, nil
}

// recomputeBounds repairs the cached latency bounds of o from its current
// kind list.
func (g *Graph) recomputeBounds(o dfg.OpID) {
	lo, hi := g.lat[g.h[o][0]], g.lat[g.h[o][0]]
	for _, ki := range g.h[o][1:] {
		if l := g.lat[ki]; l < lo {
			lo = l
		} else if l > hi {
			hi = l
		}
	}
	g.min[o], g.upper[o] = lo, hi
}

// KindLatency returns the cached latency ℓ(r) of kind index k.
func (g *Graph) KindLatency(k int) int { return g.lat[k] }

// KindArea returns the cached area of kind index k.
func (g *Graph) KindArea(k int) int64 { return g.area[k] }

// KindsByArea returns every kind index ordered by area ascending, ties
// by index. The slice must not be modified.
func (g *Graph) KindsByArea() []int { return g.byArea }

// CompatKinds returns the kind indices currently compatible with o
// (the H edges of o). The slice must not be modified.
func (g *Graph) CompatKinds(o dfg.OpID) []int { return g.h[o] }

// Compatible reports whether the H edge {o, kind k} is present.
func (g *Graph) Compatible(o dfg.OpID, k int) bool { return g.hBits[o].Has(k) }

// CompatOpBits returns O(r) as a bit set over operation IDs. The set must
// not be modified.
func (g *Graph) CompatOpBits(k int) bitset.Set { return g.opBits[k] }

// CompatOpCount returns |O(r)|, maintained incrementally across edge
// deletions.
func (g *Graph) CompatOpCount(k int) int { return g.opCount[k] }

// UpperLatency returns L_o: the largest latency among the kinds currently
// compatible with o. This is the latency upper bound the scheduler
// reserves so that any subsequent binding never violates the schedule.
func (g *Graph) UpperLatency(o dfg.OpID) int { return g.upper[o] }

// MinLatency returns the smallest latency among the kinds currently
// compatible with o.
func (g *Graph) MinLatency(o dfg.OpID) int { return g.min[o] }

// UpperLatSlice returns L_o for every operation as a slice indexed by
// operation ID, for indexed access in scheduler hot loops. The slice is
// the graph's internal state: callers must not modify it and must not
// retain it across refinement steps.
func (g *Graph) UpperLatSlice() []int { return g.upper }

// Reducible reports whether deleting o's maximum-latency H edges would
// strictly reduce L_o while leaving at least one edge: i.e. o has
// compatible kinds at two or more distinct latencies.
func (g *Graph) Reducible(o dfg.OpID) bool { return g.min[o] < g.upper[o] }

// DeleteMaxLatencyEdges removes every H edge {o, r} with ℓ(r) == L_o
// (the refinement step of §2.4) and returns the number of edges deleted.
// It refuses to act, returning 0, when o is not Reducible, so an
// operation always keeps at least one compatible kind.
func (g *Graph) DeleteMaxLatencyEdges(o dfg.OpID) int {
	if !g.Reducible(o) {
		return 0
	}
	lmax := g.upper[o]
	kept := g.h[o][:0]
	deleted := 0
	for _, ki := range g.h[o] {
		if g.lat[ki] == lmax {
			deleted++
			g.hBits[o].Remove(ki)
			g.opBits[ki].Remove(int(o))
			g.opCount[ki]--
		} else {
			kept = append(kept, ki)
		}
	}
	g.h[o] = kept
	g.edges -= deleted
	// Deleted edges all carried the maximum latency and Reducible
	// guaranteed a strictly smaller one survives, so min is unchanged.
	g.recomputeBounds(o)
	return deleted
}

// NumHEdges returns the total number of H edges remaining.
func (g *Graph) NumHEdges() int { return g.edges }

// Clone returns a deep copy sharing the immutable sequencing graph,
// library and kind set but with independent H edges.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		D: g.D, Lib: g.Lib, Kinds: g.Kinds, lat: g.lat, area: g.area, byArea: g.byArea,
		upper: append([]int(nil), g.upper...),
		min:   append([]int(nil), g.min...),
		edges: g.edges,
		topo:  g.topo,
	}
	c.h = make([][]int, len(g.h))
	c.hBits = make([]bitset.Set, len(g.hBits))
	for i := range g.h {
		c.h[i] = append([]int(nil), g.h[i]...)
		c.hBits[i] = g.hBits[i].Clone()
	}
	c.opBits = make([]bitset.Set, len(g.opBits))
	c.opCount = append([]int(nil), g.opCount...)
	for k := range g.opBits {
		c.opBits[k] = g.opBits[k].Clone()
	}
	return c
}

// Interval is a reserved execution interval [Start, End) of an operation.
type Interval struct {
	Op    dfg.OpID
	Start int
	End   int
}

// Before reports the C edge (a, b): a is scheduled to complete before b
// starts.
func (a Interval) Before(b Interval) bool { return a.End <= b.Start }

// Overlaps reports whether the two intervals share any control step, i.e.
// neither C edge direction exists between them.
func (a Interval) Overlaps(b Interval) bool { return !a.Before(b) && !b.Before(a) }
