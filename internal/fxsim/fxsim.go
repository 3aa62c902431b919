// Package fxsim is a cycle-accurate fixed-point simulator for sequencing
// graphs and allocated datapaths. It provides the functional-validation
// substrate of the reproduction: a datapath produced by any allocator is
// executed cycle by cycle — operations latch operands on their scheduled
// start step on their bound resource instance, hold the instance busy
// for the resource's latency, and publish results at completion — and
// the values are checked against a direct reference evaluation of the
// graph. A scheduling or binding bug that slips past structural
// verification (datapath.Verify) surfaces here as a wrong value or an
// instance conflict.
//
// Arithmetic semantics (documented, deliberately simple):
//
//   - values are unsigned, masked to their wordlength;
//   - a predecessor feeding an operand slot is truncated to the slot's
//     operand width (low bits kept);
//   - add/sub produce (a ± b) mod 2^w for a w-bit adder signature;
//   - mul produces the full (hi+lo)-bit product;
//   - executing an operation on a wider resource yields the same value
//     (the resource computes at the operation's own widths; extra bits
//     are zero), so sharing never changes results — which is exactly
//     what the value-equivalence property tests assert.
//
// Operand slots: an operation has two operand slots; slot widths come
// from its signature (for multiplies slot 0 is the Hi operand). Graph
// predecessors fill slots in edge-insertion order; remaining slots are
// primary inputs supplied by the caller.
package fxsim

import (
	"fmt"

	"repro/internal/datapath"
	"repro/internal/dfg"
	"repro/internal/model"
)

// Inputs supplies primary-input values: Inputs[op][slot] is consumed by
// the operation's free operand slots in order. Missing entries default
// to zero.
type Inputs map[dfg.OpID][2]uint64

// mask returns the low w bits of v.
func mask(v uint64, w int) uint64 {
	if w >= 64 {
		return v
	}
	return v & ((1 << uint(w)) - 1)
}

// words instantiates model.Arith over uint64 machine words: Trunc is the
// package's mask, the operators are the native wrapping ones.
type words struct{}

func (words) Trunc(w int, x uint64) uint64 { return mask(x, w) }
func (words) Add(x, y uint64) uint64       { return x + y }
func (words) Sub(x, y uint64) uint64       { return x - y }
func (words) Mul(x, y uint64) uint64       { return x * y }

// compute applies the operation to its slot values under the shared
// reference semantics (model.Reference), which the symbolic equivalence
// prover instantiates over expression DAGs with the same Arith contract.
func compute(spec model.OpSpec, a, b uint64) uint64 {
	return model.Reference[uint64](words{}, spec, a, b)
}

// operands resolves the two slot values of an operation from its
// predecessors (in edge order) and primary inputs.
func operands(d *dfg.Graph, o dfg.OpID, results []uint64, in Inputs) [2]uint64 {
	spec := d.Op(o).Spec
	widths := spec.OperandWidths()
	var vals [2]uint64
	preds := d.Pred(o)
	ext := in[o]
	for slot := 0; slot < 2; slot++ {
		var raw uint64
		if slot < len(preds) {
			raw = results[preds[slot]]
		} else {
			raw = ext[slot]
		}
		vals[slot] = mask(raw, widths[slot])
	}
	return vals
}

// Reference evaluates the sequencing graph directly (no schedule, no
// resources) and returns every operation's result value.
func Reference(d *dfg.Graph, in Inputs) ([]uint64, error) {
	order, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	results := make([]uint64, d.N())
	for _, o := range order {
		vals := operands(d, o, results, in)
		results[o] = compute(d.Op(o).Spec, vals[0], vals[1])
	}
	return results, nil
}

// Trace records one simulated operation execution.
type Trace struct {
	Op       dfg.OpID
	Instance int
	Start    int
	Finish   int
	Value    uint64
}

// Run simulates the datapath cycle by cycle and returns every
// operation's result value plus the execution trace (ordered by start
// step). It fails on structural impossibilities the simulation can
// detect dynamically:
//
//   - an operation starting before a predecessor's result is available;
//   - two operations occupying one instance simultaneously;
//   - an instance too narrow for an operation's operands.
func Run(d *dfg.Graph, lib *model.Library, dp *datapath.Datapath, in Inputs) ([]uint64, []Trace, error) {
	n := d.N()
	if len(dp.Start) != n || len(dp.InstOf) != n {
		return nil, nil, fmt.Errorf("fxsim: datapath shape mismatch: %d starts for %d ops", len(dp.Start), n)
	}
	// Event-driven over start steps in order.
	order := make([]dfg.OpID, n)
	for i := range order {
		order[i] = dfg.OpID(i)
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && dp.Start[order[j]] < dp.Start[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	results := make([]uint64, n)
	done := make([]int, n) // completion cycle per op
	busyUntil := make([]int, len(dp.Instances))
	var traces []Trace
	for _, o := range order {
		inst := dp.InstOf[o]
		if inst < 0 || inst >= len(dp.Instances) {
			return nil, nil, fmt.Errorf("fxsim: operation %d bound to unknown instance %d", o, inst)
		}
		kind := dp.Instances[inst].Kind
		spec := d.Op(o).Spec
		if !kind.Covers(spec.Type, spec.Sig) {
			return nil, nil, fmt.Errorf("fxsim: instance %d (%v) too narrow for operation %d (%v)", inst, kind, o, spec)
		}
		t := dp.Start[o]
		for _, p := range d.Pred(o) {
			if done[p] > t {
				return nil, nil, fmt.Errorf("fxsim: operation %d starts at %d before predecessor %d completes at %d",
					o, t, p, done[p])
			}
		}
		if busyUntil[inst] > t {
			return nil, nil, fmt.Errorf("fxsim: instance %d busy until %d when operation %d starts at %d",
				inst, busyUntil[inst], o, t)
		}
		lat := lib.Latency(kind)
		busyUntil[inst] = t + lat
		done[o] = t + lat
		vals := operands(d, o, results, in)
		results[o] = compute(spec, vals[0], vals[1])
		traces = append(traces, Trace{Op: o, Instance: inst, Start: t, Finish: t + lat, Value: results[o]})
	}
	return results, traces, nil
}

// CheckEquivalence runs both the reference evaluation and the datapath
// simulation and returns an error naming the first operation whose
// values disagree. This is the end-to-end functional validation used in
// the property tests: sharing a wider resource must never change values.
func CheckEquivalence(d *dfg.Graph, lib *model.Library, dp *datapath.Datapath, in Inputs) error {
	want, err := Reference(d, in)
	if err != nil {
		return err
	}
	got, _, err := Run(d, lib, dp, in)
	if err != nil {
		return err
	}
	for o := range want {
		if got[o] != want[o] {
			return fmt.Errorf("fxsim: operation %d computes %d on the datapath, %d in the reference",
				o, got[o], want[o])
		}
	}
	return nil
}
