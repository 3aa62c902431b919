// Package refine implements the paper's §2.4: refining wordlength
// information when a schedule violates the user latency constraint λ.
//
// The refinement target is chosen from the *bound critical path* Q_b: the
// sequencing graph is augmented with edges S_b linking operations that
// execute back-to-back on the same bound resource, and Q_b is the set of
// operations with equal ASAP and ALAP times in the augmented graph under
// the bound resource latencies ℓ(o). Within the candidate subset
// W = {o ∈ Q_b : start(o) + L_o ≤ λ}, the victim is the operation that
// loses the smallest proportion of H edges among those incident on kinds
// compatible with it; ties favour operations currently bound to a
// resource faster than their upper bound. The victim's maximum-latency
// H edges are then deleted, lowering L_o before rescheduling.
package refine

import (
	"slices"

	"repro/internal/bind"
	"repro/internal/dfg"
	"repro/internal/wcg"
)

// Scratch is the refinement step's solve-scoped scratch: the bound
// latencies, the augmented successor lists, the counting-sort and
// ASAP/ALAP arrays, and the Q_b, W and all-operations candidate lists.
// A refinement loop hands one Scratch to every round of a solve. Slices
// returned by its methods alias the scratch until the next call. A
// Scratch serves one goroutine at a time; the zero value is ready to
// use.
type Scratch struct {
	ell, cnt, asap, alap []int
	succ                 [][]dfg.OpID
	byStart, order       []dfg.OpID
	crit, w, all         []dfg.OpID
}

// BoundCriticalPath returns Q_b for the given schedule and binding: the
// operations critical in the sequencing graph augmented with
// same-resource adjacency edges (Eqn. 7), evaluated with bound latencies.
// The result aliases the scratch.
func (s *Scratch) BoundCriticalPath(g *wcg.Graph, start []int, b *bind.Binding) []dfg.OpID {
	d := g.D
	n := d.N()
	if n == 0 {
		return nil
	}
	s.ell = resize(s.ell, n)
	ell := s.ell
	for o := 0; o < n; o++ {
		ell[o] = b.BoundLatency(g, dfg.OpID(o))
	}

	s.succ = resize(s.succ, n)
	succ := s.succ
	for o := 0; o < n; o++ {
		succ[o] = append(succ[o][:0], d.Succ(dfg.OpID(o))...)
	}
	// S_b: for each clique, link operations executing back-to-back with
	// no slack: start(o1) + ℓ(o1) == start(o2). Clique members occupy
	// pairwise disjoint reserved intervals with L_o ≥ ℓ(o) ≥ 1, so a
	// zero-slack pair is necessarily adjacent in start order (any third
	// member between them would have to both finish before and start
	// after the same step): sorting the clique by start and checking
	// consecutive pairs finds every S_b edge in O(m log m).
	byStart := s.byStart
	for _, k := range b.Cliques {
		byStart = append(byStart[:0], k.Ops...)
		// Clique members occupy disjoint intervals, so starts are
		// distinct and the order is total.
		slices.SortFunc(byStart, func(a, b dfg.OpID) int { return start[a] - start[b] })
		for i := 1; i < len(byStart); i++ {
			o1, o2 := byStart[i-1], byStart[i]
			if start[o1]+ell[o1] == start[o2] {
				succ[o1] = append(succ[o1], o2)
			}
		}
	}
	s.byStart = byStart

	// All augmented edges strictly increase start (latencies are >= 1 and
	// schedules respect precedence with L_o >= ℓ(o)), so the augmented
	// graph is acyclic and any start-ascending order is topological.
	// Start values are bounded by the makespan: a counting sort (stable,
	// ID-ascending within a step) beats a comparison sort every call.
	maxStart := 0
	for o := 0; o < n; o++ {
		if start[o] > maxStart {
			maxStart = start[o]
		}
	}
	s.cnt = resize(s.cnt, maxStart+2)
	cnt := s.cnt
	clear(cnt)
	for o := 0; o < n; o++ {
		cnt[start[o]+1]++
	}
	for k := 1; k < len(cnt); k++ {
		cnt[k] += cnt[k-1]
	}
	s.order = resize(s.order, n)
	order := s.order
	for o := 0; o < n; o++ {
		order[cnt[start[o]]] = dfg.OpID(o)
		cnt[start[o]]++
	}

	s.asap = resize(s.asap, n)
	asap := s.asap
	clear(asap)
	for _, o := range order {
		for _, su := range succ[o] {
			if v := asap[o] + ell[o]; v > asap[su] {
				asap[su] = v
			}
		}
	}
	makespan := 0
	for o := 0; o < n; o++ {
		if f := asap[o] + ell[o]; f > makespan {
			makespan = f
		}
	}
	s.alap = resize(s.alap, n)
	alap := s.alap
	for o := range alap {
		alap[o] = makespan - ell[o]
	}
	for i := n - 1; i >= 0; i-- {
		o := order[i]
		for _, su := range succ[o] {
			if v := alap[su] - ell[o]; v < alap[o] {
				alap[o] = v
			}
		}
	}

	crit := s.crit[:0]
	for o := 0; o < n; o++ {
		if asap[o] == alap[o] {
			crit = append(crit, dfg.OpID(o))
		}
	}
	s.crit = crit
	return crit
}

// appendCandidates appends W to w: the members of the bound critical path
// that complete before the latency constraint even at their upper-bound
// latency. At least one member of W must be refined for the constraint
// to become satisfiable.
func appendCandidates(w []dfg.OpID, g *wcg.Graph, start []int, qb []dfg.OpID, lambda int) []dfg.OpID {
	for _, o := range qb {
		if start[o]+g.UpperLatency(o) <= lambda {
			w = append(w, o)
		}
	}
	return w
}

// ChooseVictim selects the operation to refine from the candidate set
// using the paper's metric, considering only reducible operations
// (those whose L_o would strictly decrease while keeping at least one
// kind). Returns false if no candidate is reducible.
func ChooseVictim(g *wcg.Graph, b *bind.Binding, cands []dfg.OpID) (dfg.OpID, bool) {
	best := dfg.OpID(-1)
	var bestDel, bestDen int
	var bestFavoured bool
	for _, o := range cands {
		if !g.Reducible(o) {
			continue
		}
		lmax := g.UpperLatency(o)
		del, den := 0, 0
		for _, ki := range g.CompatKinds(o) {
			den += g.CompatOpCount(ki)
			if g.KindLatency(ki) == lmax {
				del++
			}
		}
		favoured := b != nil && b.BoundLatency(g, o) < lmax
		if best < 0 || lessProportion(del, den, favoured, bestDel, bestDen, bestFavoured) {
			best, bestDel, bestDen, bestFavoured = o, del, den, favoured
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// lessProportion reports whether (del1/den1, favoured1) is a strictly
// better victim than (del2/den2, favoured2): smaller proportion first,
// then bound-below-upper-bound operations. Exact cross multiplication.
func lessProportion(del1, den1 int, fav1 bool, del2, den2 int, fav2 bool) bool {
	l := del1 * den2
	r := del2 * den1
	if l != r {
		return l < r
	}
	return fav1 && !fav2
}

// Policy selects a victim among candidate operations; implementations
// must only return reducible operations. The paper's metric is
// ChooseVictim; FirstReducible exists for the ablation benches.
type Policy func(g *wcg.Graph, b *bind.Binding, cands []dfg.OpID) (dfg.OpID, bool)

// FirstReducible is the naive victim policy: the lowest-ID reducible
// candidate. Used by the victim-policy ablation.
func FirstReducible(g *wcg.Graph, _ *bind.Binding, cands []dfg.OpID) (dfg.OpID, bool) {
	best := dfg.OpID(-1)
	for _, o := range cands {
		if g.Reducible(o) && (best < 0 || o < best) {
			best = o
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// StepBatch performs up to k refinements (at least one) from a single
// schedule's candidate computation: find Q_b and W once, then re-apply
// the victim policy (against the graph as it shrinks, so the proportion
// metric stays current) deleting each victim's maximum-latency H edges,
// until k victims have been refined or W runs out of reducible
// operations. k ≤ 1 is the paper's step. Larger k trades the paper's
// reschedule-per-refinement precision for one reschedule per batch,
// which is what makes 1000-operation graphs tractable: the number of
// schedule/bind rounds, not the cost of one round, is the superlinear
// term. When W yields nothing it falls back to Q_b, then to the whole
// operation set, refining a single victim ("reducing the latency of
// operations that are not members of this set may be necessary").
// Returns the number of operations refined; 0 means nothing anywhere is
// reducible (the problem is infeasible for this λ).
func (s *Scratch) StepBatch(g *wcg.Graph, start []int, b *bind.Binding, lambda int, pick Policy, k int) int {
	qb := s.BoundCriticalPath(g, start, b)
	s.w = appendCandidates(s.w[:0], g, start, qb, lambda)
	done := 0
	for done < max(k, 1) {
		o, ok := pick(g, b, s.w)
		if !ok {
			break
		}
		g.DeleteMaxLatencyEdges(o)
		done++
	}
	if done > 0 {
		return done
	}
	for _, cands := range [][]dfg.OpID{qb, s.AllOps(g.D.N())} {
		if o, ok := pick(g, b, cands); ok {
			g.DeleteMaxLatencyEdges(o)
			return 1
		}
	}
	return 0
}

// AllOps returns the operation IDs 0..n-1, built once per scratch. The
// slice must not be modified.
func (s *Scratch) AllOps(n int) []dfg.OpID {
	if len(s.all) != n {
		s.all = resize(s.all, n)
		for i := range s.all {
			s.all[i] = dfg.OpID(i)
		}
	}
	return s.all
}

// resize returns s with length n, reusing its backing array when the
// capacity suffices. Contents are unspecified; callers overwrite or
// clear what they read.
func resize[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}
