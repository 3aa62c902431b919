// Package bind implements the paper's §2.3: combined resource binding and
// wordlength selection on a scheduled wordlength compatibility graph.
//
// The problem is to partition the operations into cliques of the
// transitively oriented compatibility subgraph G'(O, C) — sets of
// operations whose reserved execution intervals are pairwise disjoint —
// such that each clique has a resource kind compatible with all members
// (Eqn. 4), minimising the summed kind areas (Eqn. 5). This is a special
// case of weighted unate covering (Eqn. 6); the number of cliques is
// exponential, so following the paper we extend Chvátal's greedy
// set-covering heuristic to an implicit, polynomial form: at each step a
// maximum clique of uncovered operations is found per kind (linear-time
// on the interval order), the kind maximising |clique|/cost is selected,
// and — compensating the greed — each newly selected clique is grown to
// swallow previously selected cliques where Eqn. 4 permits.
//
// The binder runs once per round of DPAlloc's refinement loop, so its
// working memory lives in a Scratch that lasts one solve: the caller
// creates it when the solve starts, passes it to every round, and drops
// it when the solve returns. A Binding from Scratch.Select aliases that
// memory and is valid until the scratch's next Select call; callers
// that keep a binding past the round copy it (core converts only the
// returned round into a datapath).
package bind

import (
	"fmt"
	"slices"

	"repro/internal/dfg"
	"repro/internal/wcg"
)

// Clique is one selected resource instance: the set of operations bound
// to it and the kind (index into the compatibility graph's kind set)
// chosen for it.
type Clique struct {
	Ops  []dfg.OpID
	Kind int
}

// Binding is a complete resource binding and wordlength selection.
type Binding struct {
	Cliques  []Clique
	CliqueOf []int // per operation: index into Cliques
}

// Area returns the implementation area of the binding: the sum of the
// areas of the bound kinds (the paper's Eqn. 5).
func (b *Binding) Area(g *wcg.Graph) int64 {
	var a int64
	for _, k := range b.Cliques {
		a += g.KindArea(k.Kind)
	}
	return a
}

// KindOf returns the kind index the operation is bound to.
func (b *Binding) KindOf(o dfg.OpID) int { return b.Cliques[b.CliqueOf[o]].Kind }

// BoundLatency returns ℓ(o): the latency of the resource the operation is
// bound to.
func (b *Binding) BoundLatency(g *wcg.Graph, o dfg.OpID) int {
	return g.KindLatency(b.KindOf(o))
}

// Makespan returns the overall latency of the schedule under the bound
// latencies: the last completion step max_o start[o] + ℓ(o). It equals
// the Makespan of the datapath the binding converts to, without building
// that datapath.
func (b *Binding) Makespan(g *wcg.Graph, start []int) int {
	m := 0
	for o, ci := range b.CliqueOf {
		if f := start[o] + g.KindLatency(b.Cliques[ci].Kind); f > m {
			m = f
		}
	}
	return m
}

// Options tunes BindSelect for the ablation benches.
type Options struct {
	// DisableGrowth turns off the clique-growth compensation step,
	// leaving pure Chvátal greed.
	DisableGrowth bool
	// DisableShrink keeps each clique on the kind used when it was
	// selected instead of re-selecting the cheapest kind satisfying
	// Eqn. 4 afterwards.
	DisableShrink bool
}

// Stats counts the work BindSelect performed; surfaced through the
// public API's solver-effort fields.
type Stats struct {
	// Merges counts clique-growth swallows: previously selected cliques
	// absorbed into a newer one, each retiring a resource instance.
	Merges int
	// Evals counts maximum-clique evaluations: per kind, the greedy
	// earliest-finish chain of its uncovered compatible operations.
	Evals int
}

// kindEntry is a lazily maintained candidate in the greedy selection: the
// last known maximum-clique size for a kind. Sizes only shrink as
// operations get covered, so a cached size is an upper bound and the
// classic lazy-greedy argument applies: when the popped top validates at
// its cached size it beats every other entry's true value, and the
// selection sequence is identical to rescanning all kinds each round.
type kindEntry struct {
	ki   int
	size int
	cost int64
}

// betterEntry is the strict total order of the greedy selection: higher
// |clique|/cost ratio, then lower cost, then lower kind index — exactly
// the winner a first-strictly-better scan in kind order produces.
func betterEntry(a, b kindEntry) bool {
	if betterRatio(a.size, a.cost, b.size, b.cost) {
		return true
	}
	if betterRatio(b.size, b.cost, a.size, a.cost) {
		return false
	}
	return a.ki < b.ki
}

// Scratch is the binder's solve-scoped scratch: the reserved intervals,
// coverage flags, counting-sort buffers, per-kind interval lists, the
// selection heap, the clique chains and the Binding itself. A refinement
// loop hands one Scratch to every round of a solve, so once the buffers
// reach their high-water mark a round allocates nothing. The Binding
// returned by Select aliases the scratch and stays valid only until the
// next call. A Scratch serves one goroutine at a time; the zero value
// is ready to use.
type Scratch struct {
	iv        []wcg.Interval
	covered   []bool
	perm, tmp []dfg.OpID
	cnt       []int
	buf       []wcg.Interval   // backing array of sortedOps
	sortedOps [][]wcg.Interval // per kind: compatible ops in interval order
	endK      []int
	sizeK     []int
	chain     []wcg.Interval
	heap      entryHeap
	cliques   []liveClique
	free      [][]wcg.Interval // retired clique chains, reused by later cliques
	merge     []wcg.Interval   // growth's merge target
	out       []Clique
	ops       []dfg.OpID // backing array of the cliques' Ops
	b         Binding
}

// Select runs Algorithm BindSelect on a scheduled compatibility graph.
// start gives the scheduled start step per operation; reserved intervals
// are [start[o], start[o]+L_o) with L_o the current latency upper bound,
// so the derived binding can never violate the schedule. The Binding
// aliases the scratch until the next call.
func (s *Scratch) Select(g *wcg.Graph, start []int, opt Options) (*Binding, Stats, error) {
	var st Stats
	n := g.D.N()
	if len(start) != n {
		return nil, st, fmt.Errorf("bind: %d start steps for %d operations", len(start), n)
	}
	s.iv = resize(s.iv, n)
	iv := s.iv
	for o := 0; o < n; o++ {
		id := dfg.OpID(o)
		iv[o] = wcg.Interval{Op: id, Start: start[o], End: start[o] + g.UpperLatency(id)}
	}

	s.covered = resize(s.covered, n)
	covered := s.covered
	clear(covered)
	remaining := n

	// The reserved intervals are fixed for the whole selection, so the
	// operations are sorted by interval order (end, start, ID —
	// cmpInterval) exactly once globally, then distributed to the
	// kinds through the H-edge lists: one O(n + makespan) counting sort
	// plus one append per H edge yields every kind's compatible
	// operations in interval order, and every later chain extraction is
	// a linear greedy walk with no sorting.
	perm := s.sortByInterval(iv)
	nk := len(g.Kinds)
	s.buf = resize(s.buf, g.NumHEdges())
	s.sortedOps = resize(s.sortedOps, nk)
	sortedOps := s.sortedOps
	off := 0
	for ki := range sortedOps {
		c := g.CompatOpCount(ki)
		sortedOps[ki] = s.buf[off : off : off+c]
		off += c
	}
	// The exact initial maximum-chain size of every kind falls out of the
	// same pass: walking the operations in interval order, the greedy
	// earliest-finish rule reduces to one comparison per H edge, so
	// seeding costs nothing beyond the distribution itself. The interval
	// itself is stored in the kind's list (not just the ID): the chain
	// walks below then run over contiguous memory with no random loads.
	s.endK = resize(s.endK, nk)
	s.sizeK = resize(s.sizeK, nk)
	endK, sizeK := s.endK, s.sizeK
	clear(endK)
	clear(sizeK)
	for _, o := range perm {
		v := iv[o]
		for _, ki := range g.CompatKinds(o) {
			sortedOps[ki] = append(sortedOps[ki], v)
			if sizeK[ki] == 0 || endK[ki] <= v.Start {
				sizeK[ki]++
				endK[ki] = v.End
			}
		}
	}

	// chainFor recomputes the maximum clique of uncovered operations
	// compatible with kind ki: greedy earliest-finish selection over the
	// pre-sorted intervals, optimal on interval orders. The returned
	// slice aliases scratch and must be consumed before the next call.
	// Coverage is monotone, so covered operations are compacted out of
	// the kind's list as a side effect: repeated evaluations of the same
	// kind walk only its still-uncovered operations.
	chain := s.chain[:0]
	chainFor := func(ki int) []wcg.Interval {
		chain = chain[:0]
		ops := sortedOps[ki]
		kept := ops[:0]
		end := 0
		for _, v := range ops {
			if covered[v.Op] {
				continue
			}
			kept = append(kept, v)
			if len(chain) == 0 || end <= v.Start {
				chain = append(chain, v)
				end = v.End
			}
		}
		sortedOps[ki] = kept
		if len(chain) == 0 {
			return nil
		}
		st.Evals++
		return chain
	}

	// The selection order is strict and total, so the heap's shape never
	// affects which entry is on top: the initial heap is built by an
	// O(|R|) heapify over the cached kind areas.
	heap := s.heap[:0]
	for ki, c := range sizeK {
		if c > 0 {
			heap = append(heap, kindEntry{ki: ki, size: c, cost: g.KindArea(ki)})
			st.Evals++
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		heap.down(i)
	}

	cliques := s.cliques[:0]
	for remaining > 0 {
		if len(heap) == 0 {
			return nil, st, fmt.Errorf("bind: %d operations have no compatible kind", remaining)
		}
		e := heap.pop()
		chain := chainFor(e.ki)
		if len(chain) == 0 {
			continue
		}
		if len(chain) < e.size {
			heap.push(kindEntry{ki: e.ki, size: len(chain), cost: e.cost})
			continue
		}
		k := liveClique{kind: e.ki, ivs: append(s.takeChain(), chain...)}
		for _, c := range chain {
			covered[c.Op] = true
			remaining--
		}
		if !opt.DisableGrowth {
			cliques = s.grow(g, cliques, &k, &st)
		}
		cliques = append(cliques, k)
		// The kind may still have uncovered (overlapping) operations and
		// can win again in a later round. Its pre-selection chain size
		// remains an upper bound (coverage only shrinks chains), so
		// repush without re-evaluating; a dead entry validates to an
		// empty chain and drops out when popped.
		heap.push(kindEntry{ki: e.ki, size: e.size, cost: e.cost})
	}
	s.heap, s.chain = heap, chain

	// Every operation is in exactly one clique, so the cliques' sorted
	// member lists tile one n-element array.
	s.out = resize(s.out, len(cliques))
	s.ops = resize(s.ops, n)
	out := s.out
	off = 0
	for ci, lc := range cliques {
		ops := s.ops[off : off+len(lc.ivs) : off+len(lc.ivs)]
		off += len(lc.ivs)
		for i, v := range lc.ivs {
			ops[i] = v.Op
		}
		slices.Sort(ops)
		out[ci] = Clique{Kind: lc.kind, Ops: ops}
		s.free = append(s.free, lc.ivs)
	}
	s.cliques = cliques[:0]
	if !opt.DisableShrink {
		for i := range out {
			out[i].Kind = cheapestCommonKind(g, out[i].Ops)
		}
	}

	s.b.Cliques = out
	s.b.CliqueOf = resize(s.b.CliqueOf, n)
	for ci, k := range out {
		for _, o := range k.Ops {
			s.b.CliqueOf[o] = ci
		}
	}
	return &s.b, st, nil
}

// takeChain returns an empty interval slice for a new clique, reusing a
// retired chain's capacity when one is available.
func (s *Scratch) takeChain() []wcg.Interval {
	if k := len(s.free); k > 0 {
		c := s.free[k-1][:0]
		s.free = s.free[:k-1]
		return c
	}
	return nil
}

// liveClique is a clique under construction: the kind paid for and the
// member intervals kept sorted in cmpInterval order, so growth checks are
// linear merges.
type liveClique struct {
	kind int
	ivs  []wcg.Interval
}

// entryHeap is a binary min-top heap under betterEntry (top = winner).
type entryHeap []kindEntry

func (h *entryHeap) push(v kindEntry) {
	*h = append(*h, v)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if betterEntry(a[p], a[i]) {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *entryHeap) pop() kindEntry {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	*h = a[:last]
	h.down(0)
	return top
}

func (h entryHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && betterEntry(h[l], h[m]) {
			m = l
		}
		if r < len(h) && betterEntry(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// betterRatio reports whether size1/cost1 > size2/cost2, breaking ties by
// lower cost then (implicitly, by scan order) lower kind index. Exact
// integer cross-multiplication; no floats.
func betterRatio(size1 int, cost1 int64, size2 int, cost2 int64) bool {
	l := int64(size1) * cost2
	r := int64(size2) * cost1
	if l != r {
		return l > r
	}
	return cost1 < cost2
}

// cmpInterval is the interval order every chain walk uses: end, then
// start, then op ID. Greedy earliest-finish selection in this order
// yields a maximum chain (activity selection on an interval order).
func cmpInterval(a, b wcg.Interval) int {
	if a.End != b.End {
		return a.End - b.End
	}
	if a.Start != b.Start {
		return a.Start - b.Start
	}
	return int(a.Op) - int(b.Op)
}

// sortByInterval returns the operation IDs ordered by cmpInterval over
// their intervals: a two-pass LSD counting sort (stable, by start then by
// end, seeded with ID-ascending order so ties resolve by ID). Start and
// end values are bounded by the schedule makespan, so this is O(n +
// makespan) with no comparator calls.
func (s *Scratch) sortByInterval(iv []wcg.Interval) []dfg.OpID {
	n := len(iv)
	maxKey := 0
	for _, v := range iv {
		if v.End > maxKey {
			maxKey = v.End
		}
	}
	s.cnt = resize(s.cnt, maxKey+2)
	s.perm = resize(s.perm, n)
	s.tmp = resize(s.tmp, n)
	cnt, perm, tmp := s.cnt, s.perm, s.tmp
	clear(cnt)
	for i := range perm {
		perm[i] = dfg.OpID(i)
	}
	for _, v := range iv {
		cnt[v.Start+1]++
	}
	for k := 1; k < len(cnt); k++ {
		cnt[k] += cnt[k-1]
	}
	for _, o := range perm {
		tmp[cnt[iv[o].Start]] = o
		cnt[iv[o].Start]++
	}
	for k := range cnt {
		cnt[k] = 0
	}
	for _, v := range iv {
		cnt[v.End+1]++
	}
	for k := 1; k < len(cnt); k++ {
		cnt[k] += cnt[k-1]
	}
	for _, o := range tmp {
		perm[cnt[iv[o].End]] = o
		cnt[iv[o].End]++
	}
	return perm
}

// grow attempts to enlarge the newly selected clique k to swallow
// previously selected cliques: an earlier clique is superfluous (and is
// deleted) when its operations, together with k's, remain pairwise
// time-compatible and all fit k's already-paid-for kind — Eqn. 4 holds
// for the union on k.Kind, so the earlier resource rides along for free
// and total area strictly decreases. Returns the surviving earlier
// cliques; the swallowed cliques' chains retire to the scratch's free
// list.
func (s *Scratch) grow(g *wcg.Graph, cliques []liveClique, k *liveClique, st *Stats) []liveClique {
	kept := cliques[:0]
	for _, old := range cliques {
		// k's own members are compatible with k.kind by construction
		// (selection and earlier swallows both check), so only the old
		// clique's members need the kind test — an O(1) bit probe each —
		// before paying for the disjointness check, which is a linear
		// merge of the two sorted interval chains.
		if !allCompatible(g, old.ivs, k.kind) {
			kept = append(kept, old)
			continue
		}
		if merged, ok := mergeChains(k.ivs, old.ivs, s.merge[:0]); ok {
			s.merge = k.ivs // recycle the replaced chain as scratch
			k.ivs = merged
			s.free = append(s.free, old.ivs)
			st.Merges++
			continue
		}
		kept = append(kept, old)
	}
	return kept
}

// allCompatible reports whether every member operation has an H edge to
// kind ki.
func allCompatible(g *wcg.Graph, ivs []wcg.Interval, ki int) bool {
	for _, v := range ivs {
		if !g.Compatible(v.Op, ki) {
			return false
		}
	}
	return true
}

// mergeChains merges two interval chains sorted in cmpInterval order into
// dst and reports whether the union is still pairwise disjoint (each
// interval ending no later than the next one starts — on an end-sorted
// sequence the consecutive check is exhaustive). On failure the merge
// aborts early and dst's contents are unspecified.
func mergeChains(a, b, dst []wcg.Interval) ([]wcg.Interval, bool) {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v wcg.Interval
		if j >= len(b) || (i < len(a) && cmpInterval(a[i], b[j]) < 0) {
			v = a[i]
			i++
		} else {
			v = b[j]
			j++
		}
		if len(dst) > 0 && !dst[len(dst)-1].Before(v) {
			return nil, false
		}
		dst = append(dst, v)
	}
	return dst, true
}

// cheapestCommonKind returns the minimum-area kind compatible with every
// operation; the caller guarantees one exists.
func cheapestCommonKind(g *wcg.Graph, ops []dfg.OpID) int {
	ki := cheapestCommonKindOK(g, ops)
	if ki < 0 {
		panic("bind: clique lost its covering kind")
	}
	return ki
}

// cheapestCommonKindOK returns -1 when no kind covers all operations.
// Kinds are sorted by class then area ascending at extraction, so the
// first hit is the cheapest.
func cheapestCommonKindOK(g *wcg.Graph, ops []dfg.OpID) int {
	for ki := range g.Kinds {
		all := true
		for _, o := range ops {
			if !g.Compatible(o, ki) {
				all = false
				break
			}
		}
		if all {
			return ki
		}
	}
	return -1
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
