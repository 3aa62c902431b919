// Package sched implements the paper's §2.2: resource-constrained list
// scheduling of a sequencing graph using incomplete wordlength
// information. Operations are scheduled with their latency *upper bounds*
// L_o (so any later binding can never violate the schedule), and the
// resource constraint is the reconstruction of the paper's Eqn. 3: with S
// a minimum-cardinality scheduling set of resource kinds covering every
// operation, and S(o) the members of S compatible with operation o,
//
//	∀y ∈ Y :  Σ_{s∈S_y}  max_{t∈T}  Σ_{o∈O(s)} e_{o,t} / |S(o)|  ≤  N_y
//
// Usage of an operation compatible with several scheduling-set members is
// shared equally between them (the 1/|S(o)| division), the max over
// control steps counts the peak per-kind demand, and the outer sum over
// the scheduling set accounts for cross-step kind conflicts that the
// classical constraint (Eqn. 2, per-step counting) misses. Shares are
// kept in exact integer arithmetic scaled by the lcm of the |S(o)|.
//
// One list scheduler serves both constraints. State.List schedules a
// compatibility graph at its upper bounds under Eqn. 3 — the rule of
// Algorithm DPAlloc (package core) and of the pipelined allocator.
// State.ListEqn2 schedules a sequencing graph at caller-given latencies
// under Eqn. 2 — the wordlength-blind stage 1 of the two-stage and
// descending-wordlength baselines, and the Eqn. 3 ablation.
//
// Algorithm DPAlloc reschedules after every refinement, so the scheduler
// keeps its working memory in a State that lives as long as one solve:
// the caller creates it when the solve starts, hands it to every
// schedule/bind/refine round, and drops it when the solve returns. A
// Result aliases that memory and is valid until the state's next
// schedule — long enough for the round's binding and refinement, which
// is all a round needs.
package sched

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bitset"
	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/wcg"
)

// Limits is the per-hardware-class resource constraint N_y. A class
// absent from the map is unconstrained. A nil Limits means fully
// unconstrained scheduling (which reduces to ASAP).
type Limits map[model.OpType]int

// Result is a schedule of the sequencing graph.
type Result struct {
	Start    []int // start control step per operation
	Makespan int   // completion step of the last operation under the scheduling latencies
}

// ErrResourceInfeasible is returned when some ready operation cannot be
// scheduled at any control step under Eqn. 3 — the signal for Algorithm
// DPAlloc to refine wordlength information.
var ErrResourceInfeasible = errors.New("sched: resource constraint unsatisfiable under Eqn. 3")

// InfeasibleError reports the operation that could not be placed under
// the resource constraint. It matches ErrResourceInfeasible via
// errors.Is.
type InfeasibleError struct {
	Op dfg.OpID
	// Need is how many additional resources of the operation's hardware
	// class Eqn. 3 was short at the deadlock (≥ 1): the class overload
	// divided by the accounting scale, rounded up. Callers searching
	// over resource bounds can jump by Need instead of probing one unit
	// at a time.
	Need int
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("sched: operation %d cannot be placed under Eqn. 3", e.Op)
}

// Is reports whether target is ErrResourceInfeasible.
func (e *InfeasibleError) Is(target error) bool { return target == ErrResourceInfeasible }

// setScratch holds the scheduling-set computation's buffers across the
// rounds of one solve.
type setScratch struct {
	uncovered bitset.Set
	// buckets is a bucket queue over cached cover counts: bucket c
	// (words [c·w, (c+1)·w)) is a bit set over area ranks — positions in
	// wcg.Graph.KindsByArea — of the kinds whose cached cover is c.
	buckets []uint64
	set     []int
}

// compute returns the scheduling set in ascending kind order. The slice
// aliases the scratch until the next call.
//
// Lazy greedy: cover counts only shrink as operations get covered, so a
// cached count is an upper bound, and the top candidate — highest cached
// cover, then smallest area, then lowest index — once its count
// validates, beats every other kind: the selection sequence is identical
// to rescanning all kinds each round. Covers are integers in [0, n] and
// never grow, so the candidates live in a bucket queue indexed by
// cached cover, scanned downwards once; within a bucket the lowest set
// bit is the lowest area rank, which is exactly the (area, index)
// tie-break.
func (s *setScratch) compute(g *wcg.Graph) []int {
	n := g.D.N()
	s.uncovered = resize(s.uncovered, (n+63)/64)
	s.uncovered.Clear()
	for i := 0; i < n; i++ {
		s.uncovered.Add(i)
	}
	byArea := g.KindsByArea()
	w := (len(byArea) + 63) / 64
	top := 0
	for _, ki := range byArea {
		top = max(top, g.CompatOpCount(ki))
	}
	s.buckets = resize(s.buckets, (top+1)*w)
	clear(s.buckets)
	buckets := s.buckets
	for r, ki := range byArea {
		if c := g.CompatOpCount(ki); c > 0 {
			buckets[c*w+r>>6] |= 1 << (uint(r) & 63)
		}
	}
	remaining := n
	set := s.set[:0]
	v, wi := top, 0 // scan position: bucket v, from word wi on
	for remaining > 0 {
		for v > 0 && (wi == w || buckets[v*w+wi] == 0) {
			if wi++; wi >= w {
				v, wi = v-1, 0
			}
		}
		if v == 0 {
			// Build guarantees every op has an edge, so this cannot
			// happen for a consistent graph.
			panic("sched: operation with no compatible kind")
		}
		word := &buckets[v*w+wi]
		r := wi<<6 + bits.TrailingZeros64(*word)
		*word &= *word - 1
		ki := byArea[r]
		c := g.CompatOpBits(ki).IntersectCount(s.uncovered)
		if c == 0 {
			continue
		}
		if c < v {
			buckets[c*w+r>>6] |= 1 << (uint(r) & 63)
			continue
		}
		set = append(set, ki)
		remaining -= c
		s.uncovered.Difference(g.CompatOpBits(ki))
		// A selected kind's future cover is zero; it never re-enters.
	}
	slices.Sort(set)
	s.set = set
	return set
}

// State is the list scheduler's solve-scoped scratch: the ready and
// pending bookkeeping, the priorities, the scheduling set's bucket queue
// and bit set, and both accountants' arrays. A caller hands one State to
// every schedule of a solve, so once the buffers reach their high-water
// mark a schedule allocates nothing. A Result aliases the state and
// stays valid only until the next call. A State serves one goroutine at
// a time; the zero value is ready to use.
type State struct {
	start, prio, predLeft, finish []int
	ready, incoming, merged       []dfg.OpID
	pending                       pendHeap
	running                       intHeap
	set                           setScratch
	a3                            eqn3Acct
	a2                            eqn2Acct
}

// List schedules the compatibility graph's operations at their latency
// upper bounds L_o under Eqn. 3, reusing the state's buffers. With nil or
// empty limits it reduces to ASAP scheduling.
func (s *State) List(g *wcg.Graph, limits Limits) (Result, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return Result{}, err
	}
	var a3 *eqn3Acct
	if len(limits) > 0 && g.D.N() > 0 {
		a3 = &s.a3
		a3.reset(g, s.set.compute(g), limits)
	}
	return s.list(g.D, order, g.UpperLatSlice(), a3, nil)
}

// ListEqn2 schedules the sequencing graph at the latencies lat (indexed
// by operation ID) under the classical Eqn. 2 constraint: at most N_y
// operations of class y run in any control step, whatever their
// wordlengths. This is the wordlength-blind scheduler of the two-stage
// baselines and of the Eqn. 3 ablation; the paper shows the constraint
// is too weak to guarantee bindability. With nil or empty limits it
// reduces to ASAP scheduling.
func (s *State) ListEqn2(d *dfg.Graph, lat []int, limits Limits) (Result, error) {
	order, err := d.TopoOrder()
	if err != nil {
		return Result{}, err
	}
	var a2 *eqn2Acct
	if len(limits) > 0 {
		a2 = &s.a2
		a2.reset(d, limits)
	}
	return s.list(d, order, lat, nil, a2)
}

// list is the list scheduler behind both constraints: at most one of a3
// and a2 is set, and with neither every ready operation is placed at
// once.
func (s *State) list(d *dfg.Graph, order []dfg.OpID, lat []int, a3 *eqn3Acct, a2 *eqn2Acct) (Result, error) {
	n := d.N()
	s.start = resize(s.start, n)
	res := Result{Start: s.start}
	if n == 0 {
		return res, nil
	}
	s.prio = resize(s.prio, n)
	prio := s.prio
	priorities(d, order, lat, prio)
	var sig, sigEpoch, sigOkL, sigBadL []int
	if a3 != nil {
		sig, sigEpoch, sigOkL, sigBadL = a3.sig, a3.sigEpoch, a3.sigOkL, a3.sigBadL
	}

	// Readiness is tracked by events instead of per-step rescans: an
	// operation enters the pending heap (keyed by the max finish of its
	// predecessors) the moment its last predecessor is placed, and moves
	// to the ready list once t reaches that key. Deferred operations —
	// ready but rejected by the accountant — simply stay on the ready
	// list for the next step, which is exactly the retry behavior of the
	// original full rescan.
	s.predLeft = resize(s.predLeft, n)
	predLeft := s.predLeft
	for i := 0; i < n; i++ {
		predLeft[i] = len(d.Pred(dfg.OpID(i)))
	}
	s.finish = resize(s.finish, n)
	finish := s.finish       // valid once scheduled
	pending := s.pending[:0] // ops whose preds are placed but still running
	running := s.running[:0] // finish times of placed operations
	ready := s.ready[:0]
	for i := 0; i < n; i++ {
		if predLeft[i] == 0 {
			ready = append(ready, dfg.OpID(i))
		}
	}
	incoming, merged := s.incoming[:0], s.merged[:0]
	// The buffers go back to the state on every exit, keeping whatever
	// capacity this round grew them to.
	keep := func() {
		s.pending, s.running = pending, running
		s.ready, s.incoming, s.merged = ready, incoming, merged
	}
	// Placement order is (priority desc, ID asc) — a strict total order
	// since IDs are distinct. The ready list is kept sorted: deferrals
	// preserve order, and each step's arrivals are sorted alone and
	// merged in, instead of re-sorting the whole list every step.
	cmpOp := func(a, b dfg.OpID) int {
		if prio[a] != prio[b] {
			return prio[b] - prio[a]
		}
		return int(a) - int(b)
	}
	slices.SortFunc(ready, cmpOp)
	nDone := 0
	t := 0
	horizonGuard := 0
	maxLat := 1
	for _, l := range lat {
		maxLat = max(maxLat, l)
	}
	maxGuard := 4 * (n + 2) * (maxLat + 1)
	for nDone < n {
		incoming = incoming[:0]
		for len(pending) > 0 && pending[0].at <= t {
			incoming = append(incoming, pending.pop().op)
		}
		if len(incoming) > 0 {
			slices.SortFunc(incoming, cmpOp)
			merged = merged[:0]
			i, j := 0, 0
			for i < len(ready) && j < len(incoming) {
				if cmpOp(ready[i], incoming[j]) < 0 {
					merged = append(merged, ready[i])
					i++
				} else {
					merged = append(merged, incoming[j])
					j++
				}
			}
			merged = append(merged, ready[i:]...)
			merged = append(merged, incoming[j:]...)
			ready, merged = merged, ready
		}
		progress := false
		kept := ready[:0]
		for _, o := range ready {
			l := lat[o]
			if a3 != nil {
				// Manually inlined probe of the accountant's monotone
				// signature cache; only misses pay the call into fits.
				ok, hit := false, false
				if len(sig) != 0 && t == a3.lastT {
					if s := sig[o]; sigEpoch[s] == a3.epoch {
						if l <= sigOkL[s] {
							ok, hit = true, true
						} else if l >= sigBadL[s] {
							hit = true
						}
					}
				}
				if !hit {
					ok = a3.fits(o, t, l)
				}
				if !ok {
					kept = append(kept, o)
					continue
				}
				a3.commit(o, t, l)
			} else if a2 != nil {
				if !a2.fits(o, t, l) {
					kept = append(kept, o)
					continue
				}
				a2.commit(o, t, l)
			}
			res.Start[o] = t
			f := t + l
			finish[o] = f
			if f > res.Makespan {
				res.Makespan = f
			}
			running.push(f)
			nDone++
			progress = true
			for _, s := range d.Succ(o) {
				predLeft[s]--
				if predLeft[s] == 0 {
					at := 0
					for _, p := range d.Pred(s) {
						if finish[p] > at {
							at = finish[p]
						}
					}
					// Successors finish after t, so at > t always:
					// they become ready at a strictly later step.
					pending.push(pendItem{at: at, op: s})
				}
			}
		}
		ready = kept
		if nDone == n {
			break
		}
		// Advance to the next interesting step: the earliest finish time
		// of a running operation, or t+1 if deferral was purely due to
		// resource accounting.
		for len(running) > 0 && running[0] <= t {
			running.pop()
		}
		next := -1
		if len(running) > 0 {
			next = running[0]
		}
		if next < 0 {
			if !progress && len(ready) > 0 {
				// Idle machine, ready work, nothing fits: under peak
				// accounting this cannot improve at a later step.
				need := 1
				if a3 != nil {
					if d := a3.deficit(ready[0], t, lat[ready[0]]); d > need {
						need = d
					}
				}
				keep()
				return Result{}, &InfeasibleError{Op: ready[0], Need: need}
			}
			next = t + 1
		}
		t = next
		horizonGuard++
		if horizonGuard > maxGuard {
			keep()
			return Result{}, fmt.Errorf("%w: no progress within horizon", ErrResourceInfeasible)
		}
	}
	keep()
	return res, nil
}

// pendItem is an operation waiting for its predecessors to finish.
type pendItem struct {
	at int // step at which the op becomes ready (max pred finish)
	op dfg.OpID
}

// pendHeap is a min-heap of pendItems by readiness step. Order among
// equal steps is irrelevant: the ready list is sorted by priority before
// placement.
type pendHeap []pendItem

func (h *pendHeap) push(v pendItem) {
	*h = append(*h, v)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p].at <= a[i].at {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *pendHeap) pop() pendItem {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	*h = a[:last]
	a = a[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(a) && a[l].at < a[m].at {
			m = l
		}
		if r < len(a) && a[r].at < a[m].at {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}

// intHeap is a min-heap of ints (finish times of running operations).
type intHeap []int

func (h *intHeap) push(v int) {
	*h = append(*h, v)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	*h = a[:last]
	a = a[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(a) && a[l] < a[m] {
			m = l
		}
		if r < len(a) && a[r] < a[m] {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}

// priorities fills prio with the standard list-scheduling priority: the
// longest path (in cycles, inclusive of own latency) from each operation
// to any sink. Most critical first.
func priorities(d *dfg.Graph, order []dfg.OpID, lat []int, prio []int) {
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := 0
		for _, s := range d.Succ(id) {
			if prio[s] > best {
				best = prio[s]
			}
		}
		prio[id] = best + lat[id]
	}
}

// ---- Eqn. 3 accounting ----

type eqn3Acct struct {
	scale int64   // lcm of |S(o)| over all operations
	share []int64 // scale / |S(o)| per op
	// limitScaled[o] is the op's class limit times scale, or -1 when the
	// class is unconstrained; classOf[o] is a dense class index. Both
	// precomputed so fits performs no map lookups. H edges are
	// intra-class (Kind.Covers requires the class to match), so every
	// member of S(o) is of o's class.
	limitScaled []int64
	classOf     []int
	// S(o): a bit mask over set slots when the set fits in 64 bits (the
	// common case, iterated with no memory traffic), else explicit slot
	// lists in sOf. The mask is empty when the slot lists are in use.
	mask []uint64
	sOf  [][]int
	// sizes[o] = |S(o)| and slotLimit[si] = the slot's class limit (-1
	// unconstrained): reset's working arrays, kept for reuse.
	sizes     []int
	slotLimit []int64
	// per scheduling-set member: load per step, current peak, and the
	// slot's dense class index. classSum[y] = Σ peak over the slots of
	// class y, maintained on commit so the Eqn. 3 sum in fits reduces to
	// the class total plus the peak deltas of the |S(o)| touched slots.
	load      [][]int64
	peak      []int64
	slotClass []int
	classSum  []int64
	// Signature cache: operations with identical S(o) (same scheduling-
	// set members, hence same share, class and limit) get identical fits
	// answers at the same step, and the answer stays valid until a
	// commit changes the loads or t advances. Feasibility is antitone in
	// the latency (a longer occupancy only raises peaks), so per
	// signature the largest latency known to fit and the smallest known
	// not to fit bound every repeat query. Deferred operations retried
	// every step collapse to at most two evaluations per signature.
	// sig is empty when |S| exceeds the 64-bit mask; sigOf maps a mask
	// to its signature ID.
	sig      []int
	sigOf    map[uint64]int
	sigEpoch []int
	sigOkL   []int
	sigBadL  []int
	epoch    int
	lastT    int
}

// reset prepares the accountant for one schedule over set, reusing the
// arrays of earlier rounds: afterwards it is in exactly the state a
// freshly allocated accountant would be in (zero loads and peaks, every
// signature cache entry stale, epoch 1).
func (a *eqn3Acct) reset(g *wcg.Graph, set []int, limits Limits) {
	n := g.D.N()
	a.share = resize(a.share, n)
	a.limitScaled = resize(a.limitScaled, n)
	a.classOf = resize(a.classOf, n)
	a.sizes = resize(a.sizes, n)
	// Load rows keep their capacity across rounds; rows beyond the
	// current set stay parked in the backing array.
	if k := len(set); k > cap(a.load) {
		a.load = append(a.load[:cap(a.load)], make([][]int64, k-cap(a.load))...)
	}
	a.load = a.load[:len(set)]
	for si := range a.load {
		a.load[si] = a.load[si][:0]
	}
	a.peak = resize(a.peak, len(set))
	clear(a.peak)
	a.slotClass = resize(a.slotClass, len(set))
	a.slotLimit = resize(a.slotLimit, len(set))
	a.epoch, a.lastT = 1, 0
	// Per slot: the dense class index and limit of its class. Any member
	// of S(o) names o's class, so per-op lookups reduce to slot lookups.
	var classID [model.NumOpTypes]int
	for y := range classID {
		classID[y] = -1
	}
	classes := 0
	for si, ki := range set {
		y := g.Kinds[ki].Class
		if classID[y] < 0 {
			classID[y] = classes
			classes++
		}
		a.slotClass[si] = classID[y]
		if limit, ok := limits[y]; ok {
			a.slotLimit[si] = int64(limit)
		} else {
			a.slotLimit[si] = -1
		}
	}
	a.classSum = resize(a.classSum, classes)
	clear(a.classSum)
	sizes := a.sizes
	a.scale = 1
	if len(set) <= 64 {
		a.mask = resize(a.mask, n)
		clear(a.mask)
		for si, ki := range set {
			bit := uint64(1) << uint(si)
			mask := a.mask
			g.CompatOpBits(ki).ForEach(func(o int) { mask[o] |= bit })
		}
		if a.sigOf == nil {
			a.sigOf = make(map[uint64]int)
		}
		clear(a.sigOf)
		a.sig = resize(a.sig, n)
		for o := 0; o < n; o++ {
			m := a.mask[o]
			if m == 0 {
				panic("sched: scheduling set does not cover operation")
			}
			sizes[o] = bits.OnesCount64(m)
			a.scale = lcm(a.scale, int64(sizes[o]))
			first := bits.TrailingZeros64(m)
			a.classOf[o] = a.slotClass[first]
			a.limitScaled[o] = a.slotLimit[first]
			id, ok := a.sigOf[m]
			if !ok {
				id = len(a.sigOf)
				a.sigOf[m] = id
			}
			a.sig[o] = id
		}
		a.sigEpoch = resize(a.sigEpoch, len(a.sigOf))
		clear(a.sigEpoch)
		a.sigOkL = resize(a.sigOkL, len(a.sigOf))
		a.sigBadL = resize(a.sigBadL, len(a.sigOf))
	} else {
		// Wide sets use explicit slot lists; an empty mask and sig select
		// that path in fits, commit and the scheduler's cache probe.
		a.mask, a.sig = a.mask[:0], a.sig[:0]
		a.sOf = resize(a.sOf, n)
		for o := range a.sOf {
			a.sOf[o] = a.sOf[o][:0]
		}
		for si, ki := range set {
			sOf := a.sOf
			g.CompatOpBits(ki).ForEach(func(o int) { sOf[o] = append(sOf[o], si) })
		}
		for o := 0; o < n; o++ {
			if len(a.sOf[o]) == 0 {
				panic("sched: scheduling set does not cover operation")
			}
			sizes[o] = len(a.sOf[o])
			a.scale = lcm(a.scale, int64(sizes[o]))
			first := a.sOf[o][0]
			a.classOf[o] = a.slotClass[first]
			a.limitScaled[o] = a.slotLimit[first]
		}
	}
	for o := 0; o < n; o++ {
		a.share[o] = a.scale / int64(sizes[o])
		if a.limitScaled[o] >= 0 {
			a.limitScaled[o] *= a.scale
		}
	}
}

// peakDelta returns the increase of slot si's peak if the op occupied
// [t, t+l) with the given share.
func (a *eqn3Acct) peakDelta(si, t, l int, share int64) int64 {
	p := a.peak[si]
	np := p
	for step := t; step < t+l; step++ {
		if v := a.loadAt(si, step) + share; v > np {
			np = v
		}
	}
	return np - p
}

func (a *eqn3Acct) fits(o dfg.OpID, t, l int) bool {
	lim := a.limitScaled[o]
	if lim < 0 {
		return true
	}
	if t != a.lastT {
		a.lastT = t
		a.epoch++
	}
	s := -1
	if len(a.sig) != 0 {
		s = a.sig[o]
		if a.sigEpoch[s] == a.epoch {
			if l <= a.sigOkL[s] {
				return true
			}
			if l >= a.sigBadL[s] {
				return false
			}
		}
	}
	// New Σ_{s∈S_y} peak_s if o occupies [t, t+l) with share w on each
	// member of S(o): the maintained class total plus the peak delta of
	// each touched slot.
	sum := a.classSum[a.classOf[o]]
	if len(a.mask) != 0 {
		for m := a.mask[o]; m != 0; m &= m - 1 {
			sum += a.peakDelta(bits.TrailingZeros64(m), t, l, a.share[o])
		}
	} else {
		for _, si := range a.sOf[o] {
			sum += a.peakDelta(si, t, l, a.share[o])
		}
	}
	res := sum <= lim
	if s >= 0 {
		if a.sigEpoch[s] != a.epoch {
			a.sigEpoch[s] = a.epoch
			a.sigOkL[s] = 0
			a.sigBadL[s] = int(^uint(0) >> 1)
		}
		if res {
			if l > a.sigOkL[s] {
				a.sigOkL[s] = l
			}
		} else if l < a.sigBadL[s] {
			a.sigBadL[s] = l
		}
	}
	return res
}

// deficit returns how many whole resources of o's class are missing for
// o to occupy [t, t+l) under Eqn. 3 given the committed loads: the class
// sum's excess over the scaled limit, divided by the scale, rounded up.
// 0 means o fits.
func (a *eqn3Acct) deficit(o dfg.OpID, t, l int) int {
	lim := a.limitScaled[o]
	if lim < 0 {
		return 0
	}
	sum := a.classSum[a.classOf[o]]
	if len(a.mask) != 0 {
		for m := a.mask[o]; m != 0; m &= m - 1 {
			sum += a.peakDelta(bits.TrailingZeros64(m), t, l, a.share[o])
		}
	} else {
		for _, si := range a.sOf[o] {
			sum += a.peakDelta(si, t, l, a.share[o])
		}
	}
	if sum <= lim {
		return 0
	}
	return int((sum - lim + a.scale - 1) / a.scale)
}

func (a *eqn3Acct) commitSlot(si, t, l int, share int64) {
	for step := t; step < t+l; step++ {
		a.addLoad(si, step, share)
		if v := a.loadAt(si, step); v > a.peak[si] {
			a.classSum[a.slotClass[si]] += v - a.peak[si]
			a.peak[si] = v
		}
	}
}

func (a *eqn3Acct) commit(o dfg.OpID, t, l int) {
	a.epoch++ // loads change; cached fits answers are stale
	if len(a.mask) != 0 {
		for m := a.mask[o]; m != 0; m &= m - 1 {
			a.commitSlot(bits.TrailingZeros64(m), t, l, a.share[o])
		}
		return
	}
	for _, si := range a.sOf[o] {
		a.commitSlot(si, t, l, a.share[o])
	}
}

func (a *eqn3Acct) loadAt(si, step int) int64 {
	if step < len(a.load[si]) {
		return a.load[si][step]
	}
	return 0
}

func (a *eqn3Acct) addLoad(si, step int, w int64) {
	for step >= len(a.load[si]) {
		a.load[si] = append(a.load[si], 0)
	}
	a.load[si][step] += w
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int64) int64 { return a / gcd(a, b) * b }

// ---- Eqn. 2 accounting ----

// eqn2Acct counts the operations of each hardware class running in each
// control step.
type eqn2Acct struct {
	d      *dfg.Graph
	limits Limits
	used   [model.NumOpTypes][]int // per class: operations running per step
}

func (a *eqn2Acct) reset(d *dfg.Graph, limits Limits) {
	a.d, a.limits = d, limits
	for y := range a.used {
		a.used[y] = a.used[y][:0]
	}
}

func (a *eqn2Acct) fits(o dfg.OpID, t, l int) bool {
	y := a.d.Op(o).Spec.Type.HardwareClass()
	limit, ok := a.limits[y]
	if !ok {
		return true
	}
	u := a.used[y]
	for step := t; step < min(t+l, len(u)); step++ {
		if u[step]+1 > limit {
			return false
		}
	}
	return true
}

func (a *eqn2Acct) commit(o dfg.OpID, t, l int) {
	y := a.d.Op(o).Spec.Type.HardwareClass()
	u := a.used[y]
	for len(u) < t+l {
		u = append(u, 0)
	}
	for step := t; step < t+l; step++ {
		u[step]++
	}
	a.used[y] = u
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
