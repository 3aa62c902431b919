// Package core implements Algorithm DPAlloc, the paper's polynomial-time
// heuristic for combined scheduling, resource binding and wordlength
// selection of multiple-wordlength systems.
//
// The inner loop follows the paper's §2 pseudo-code. The resource set
// covering each operation is computed once (H edges of the wordlength
// compatibility graph); each iteration schedules the sequencing graph
// with per-operation latency *upper bounds* L_o — so that the binding
// derived afterwards can never violate the schedule — then performs
// combined binding and wordlength selection. If the resulting datapath
// violates the user latency constraint λ, wordlength information is
// refined (maximum-latency H edges of a victim on the bound critical path
// are deleted, lowering its L_o) and the loop repeats. Starting from the
// largest possible range of latencies gives the binder the greatest
// possible resource sharing; latencies are only tightened when forced by
// λ.
//
// The paper treats the per-class resource bound N_y as an input
// (Table 1). For area minimisation subject only to λ — the setting of the
// paper's evaluation — Allocate adds an outer search: each hardware class
// starts at its utilisation lower bound N_y = ⌈Σ_o ℓ_min(o) / λ⌉ and the
// class blocking feasibility is incremented until the inner loop
// succeeds. The first feasible configuration has the fewest resources
// and hence maximal sharing; the binder's cost-effectiveness rule
// declines merges that would not pay for themselves.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bind"
	"repro/internal/datapath"
	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/refine"
	"repro/internal/sched"
	"repro/internal/wcg"
)

// ErrInfeasible is returned when no datapath meets the latency constraint
// even with every operation at its minimum latency (λ below λ_min, or
// resource limits too tight).
var ErrInfeasible = errors.New("core: latency constraint infeasible")

// Options tunes the heuristic. The zero value is the paper's algorithm
// with automatic resource bounds.
type Options struct {
	// Limits fixes the number of resources per hardware class (the
	// paper's N_y input). Nil enables the automatic minimal-resource
	// search described in the package comment.
	Limits sched.Limits
	// DisableGrowth, DisableShrink pass through to bind.Options
	// (ablation).
	DisableGrowth bool
	DisableShrink bool
	// DisableClosure extracts only the operations' own kinds, without
	// join closure (ablation).
	DisableClosure bool
	// Victim overrides the refinement victim policy (ablation); nil uses
	// the paper's smallest-proportion metric.
	Victim refine.Policy
	// RefineBatch controls how many victims each refinement round may
	// process before rescheduling. 1 is the paper's exact
	// one-victim-per-reschedule step. 0 (the default) chooses
	// automatically by problem size: small graphs (< BatchMinOps
	// operations — every graph in the paper's range) always use 1;
	// large graphs refine up to n/64 victims per λ-violation round
	// (throttled by how far the makespan still is from λ, so the final
	// approach reverts to single steps) and batch Eqn. 3 deadlock
	// rounds ever more aggressively as a ladder deepens. Values > 1
	// impose a fixed per-round cap regardless of size.
	RefineBatch int
}

// BatchMinOps is the problem size below which the automatic refinement
// batching (Options.RefineBatch == 0) stays at the paper-exact single
// step. Small problems keep bit-identical results; above the threshold
// the allocator trades per-refinement rescheduling for scalability.
const BatchMinOps = 200

// Stats reports how the heuristic ran.
type Stats struct {
	Iterations   int // scheduling/binding rounds across all configurations
	Refinements  int // H-edge deletion steps
	EdgesDeleted int // total H edges removed
	Kinds        int // size of the extracted resource set R
	Configs      int // resource-bound configurations tried by the auto search
	Merges       int // binder clique-growth swallows across all rounds
	Evals        int // binder candidate-clique evaluations across all rounds
}

// Allocate runs Algorithm DPAlloc on the sequencing graph with latency
// constraint lambda and returns a verified datapath.
func Allocate(d *dfg.Graph, lib *model.Library, lambda int, opt Options) (*datapath.Datapath, Stats, error) {
	return AllocateCtx(context.Background(), d, lib, lambda, opt)
}

// AllocateCtx is Allocate with cancellation: the schedule/bind/refine
// loop and the outer resource-bound search check ctx between rounds and
// return ctx.Err() promptly once it is done.
func AllocateCtx(ctx context.Context, d *dfg.Graph, lib *model.Library, lambda int, opt Options) (*datapath.Datapath, Stats, error) {
	var stats Stats
	if err := d.Validate(); err != nil {
		return nil, stats, err
	}
	if d.N() == 0 {
		return &datapath.Datapath{}, stats, nil
	}
	// One compatibility graph per solve: every configuration refines its
	// own clone, and one scratch serves every round of every
	// configuration.
	base, err := buildWCG(d, lib, opt)
	if err != nil {
		return nil, stats, err
	}
	stats.Kinds = len(base.Kinds)
	var st solveState
	if opt.Limits != nil {
		stats.Configs = 1
		dp, err := allocateFixed(ctx, base, lambda, opt, opt.Limits, &st, &stats)
		return dp, stats, err
	}

	// Automatic minimal-resource search.
	limits, count, busy := model.SeedLimits(d.Specs(), lib, lambda)
	for {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		stats.Configs++
		dp, err := allocateFixed(ctx, base.Clone(), lambda, opt, limits, &st, &stats)
		if err == nil {
			return dp, stats, nil
		}
		if !errors.Is(err, ErrInfeasible) {
			return nil, stats, err
		}
		y, need, ok := blame(err, d, limits, count, busy, lambda)
		if !ok {
			return nil, stats, fmt.Errorf("%w: λ=%d (λ_min may exceed it)", ErrInfeasible, lambda)
		}
		// Small graphs probe one unit at a time — the paper-exact first-
		// feasible search. Large graphs jump by the scheduler's reported
		// deficit, which collapses runs of configurations that Eqn. 3
		// rejects by more than one whole resource.
		if d.N() < BatchMinOps || need < 1 {
			need = 1
		}
		limits[y] = min(limits[y]+need, count[y])
	}
}

// blame picks the hardware class whose resource bound should grow after
// an infeasible configuration: the class of the operation the scheduler
// could not place if available, otherwise the class with the highest
// utilisation pressure Σℓ_min/(N_y·λ) (model.GrowthClass). Classes
// already at one resource per operation cannot grow. The second result
// is the scheduler's reported resource deficit for the blamed class (1
// when unknown). Returns false when no class can grow.
func blame(err error, d *dfg.Graph, limits sched.Limits, count, busy map[model.OpType]int, lambda int) (model.OpType, int, bool) {
	var se *sched.InfeasibleError
	if errors.As(err, &se) {
		y := d.Op(se.Op).Spec.Type.HardwareClass()
		if limits[y] < count[y] {
			return y, se.Need, true
		}
	}
	y, ok := model.GrowthClass(limits, count, busy, lambda)
	return y, 1, ok
}

// buildWCG constructs the wordlength compatibility graph the options ask
// for: full join closure, or the operations' own kinds only (ablation).
func buildWCG(d *dfg.Graph, lib *model.Library, opt Options) (*wcg.Graph, error) {
	if opt.DisableClosure {
		return wcg.BuildWithKinds(d, lib, ownKinds(d))
	}
	return wcg.Build(d, lib)
}

// solveState is the scratch one solve reuses across all of its
// configurations and schedule/bind/refine rounds. It is created per
// solve and passed down explicitly, so concurrent solves share nothing.
type solveState struct {
	sched  sched.State
	bind   bind.Scratch
	refine refine.Scratch
}

// allocateFixed is the paper's Algorithm DPAlloc for a fixed N_y,
// refining g in place.
func allocateFixed(ctx context.Context, g *wcg.Graph, lambda int, opt Options, limits sched.Limits, st *solveState, stats *Stats) (*datapath.Datapath, error) {
	d, lib := g.D, g.Lib
	pick := opt.Victim
	if pick == nil {
		pick = refine.ChooseVictim
	}
	bindOpt := bind.Options{DisableGrowth: opt.DisableGrowth, DisableShrink: opt.DisableShrink}

	// Refinement batch caps (see Options.RefineBatch). batchA is the
	// fixed batch for Eqn. 3 deadlock rounds, which expose no distance
	// signal; the λ-violation rounds scale their batch by the remaining
	// makespan excess up to batchB.
	n := d.N()
	batchA, batchB := 1, 1
	switch {
	case opt.RefineBatch > 1:
		batchA, batchB = opt.RefineBatch, opt.RefineBatch
	case opt.RefineBatch == 0 && n >= BatchMinOps:
		batchA = min(16, n/128)
		batchB = n / 64
	}

	// Each refinement deletes at least one H edge, so the loop is bounded
	// by the initial edge count; the +2 covers the final feasible round.
	maxIters := g.NumHEdges() + 2
	for iter := 0; iter < maxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stats.Iterations++
		r, schedErr := st.sched.List(g, limits)
		if schedErr != nil {
			if !errors.Is(schedErr, sched.ErrResourceInfeasible) {
				return nil, schedErr
			}
			// No schedule exists under Eqn. 3 with the current
			// wordlength information: refine without binding guidance.
			// Deadlock rounds escalate with ladder depth: a
			// configuration still deadlocked after many rounds is
			// grinding towards full refinement, and precision there no
			// longer buys area — it only multiplies reschedules.
			ka := batchA
			if batchA > 1 {
				ka = min(64, batchA+iter/8)
			}
			all := st.refine.AllOps(n)
			for j := 0; j < ka; j++ {
				o, ok := pick(g, nil, all)
				if !ok {
					if j == 0 {
						return nil, fmt.Errorf("%w: %w", ErrInfeasible, schedErr)
					}
					break
				}
				stats.Refinements++
				stats.EdgesDeleted += g.DeleteMaxLatencyEdges(o)
			}
			continue
		}
		b, bst, err := st.bind.Select(g, r.Start, bindOpt)
		if err != nil {
			return nil, err
		}
		stats.Merges += bst.Merges
		stats.Evals += bst.Evals
		m := b.Makespan(g, r.Start)
		if m <= lambda {
			dp := toDatapath(g, r.Start, b)
			if err := dp.Verify(d, lib, lambda); err != nil {
				return nil, fmt.Errorf("core: internal error, produced illegal datapath: %w", err)
			}
			return dp, nil
		}
		// The batch shrinks with the remaining excess so the final
		// approach to λ reverts to the paper's single step.
		k := min(batchB, max(1, (m-lambda)/4))
		edges := g.NumHEdges()
		refined := st.refine.StepBatch(g, r.Start, b, lambda, pick, k)
		if refined == 0 {
			return nil, fmt.Errorf("%w: λ=%d below achievable latency %d", ErrInfeasible, lambda, m)
		}
		stats.Refinements += refined
		stats.EdgesDeleted += edges - g.NumHEdges()
	}
	return nil, fmt.Errorf("core: refinement loop exceeded %d iterations", maxIters)
}

// MinLambda returns λ_min for the graph: the smallest latency constraint
// any allocator can meet (critical path at minimum latencies).
func MinLambda(d *dfg.Graph, lib *model.Library) (int, error) {
	return d.MinMakespan(lib)
}

// ownKinds extracts one kind per distinct operation signature, without
// join closure.
func ownKinds(d *dfg.Graph) []model.Kind {
	seen := make(map[model.Kind]bool)
	var kinds []model.Kind
	for _, o := range d.Ops() {
		k := o.Spec.MinKind()
		if !seen[k] {
			seen[k] = true
			kinds = append(kinds, k)
		}
	}
	return kinds
}

// toDatapath converts a schedule plus binding into the common result
// representation, copying everything: the inputs alias the solve's
// scratch.
func toDatapath(g *wcg.Graph, start []int, b *bind.Binding) *datapath.Datapath {
	dp := &datapath.Datapath{
		Start:  append([]int(nil), start...),
		InstOf: append([]int(nil), b.CliqueOf...),
	}
	for _, k := range b.Cliques {
		dp.Instances = append(dp.Instances, datapath.Instance{
			Kind: g.Kinds[k.Kind],
			Ops:  append([]dfg.OpID(nil), k.Ops...),
		})
	}
	return dp
}
