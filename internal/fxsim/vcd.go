package fxsim

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/datapath"
	"repro/internal/dfg"
	"repro/internal/model"
)

// WriteVCD renders an execution trace as a Value Change Dump (IEEE
// 1364), the interchange format hardware waveform viewers read. One
// variable is emitted per operation result (changing at the operation's
// completion step) and one per resource instance showing the ID of the
// operation it is executing (changing at issue and release), so the
// schedule and binding can be inspected on a timeline.
func WriteVCD(w io.Writer, d *dfg.Graph, lib *model.Library, dp *datapath.Datapath, traces []Trace) error {
	n := d.N()
	if len(dp.Start) != n {
		return fmt.Errorf("fxsim: datapath shape mismatch: %d starts for %d ops", len(dp.Start), n)
	}

	// Variable identifiers: VCD uses printable ASCII codes.
	ident := func(i int) string {
		const first, span = 33, 94 // '!' .. '~'
		s := ""
		for {
			s = string(rune(first+i%span)) + s
			if i < span {
				return s
			}
			i = i/span - 1
		}
	}

	fmt.Fprintf(w, "$timescale 1ns $end\n")
	fmt.Fprintf(w, "$scope module datapath $end\n")
	for o := 0; o < n; o++ {
		name := d.Op(dfg.OpID(o)).Name
		if name == "" {
			name = fmt.Sprintf("op%d", o)
		}
		fmt.Fprintf(w, "$var wire %d %s r_%s $end\n",
			d.Op(dfg.OpID(o)).Spec.ResultWidth(), ident(o), name)
	}
	for ii := range dp.Instances {
		fmt.Fprintf(w, "$var wire 32 %s u%d_op $end\n", ident(n+ii), ii)
	}
	fmt.Fprintf(w, "$upscope $end\n$enddefinitions $end\n")

	// Events: value changes keyed by time step.
	type change struct {
		id    string
		width int
		value uint64
		has   bool // false renders as x (idle instance)
	}
	events := map[int][]change{}
	for _, tr := range traces {
		events[tr.Finish] = append(events[tr.Finish], change{
			id: ident(int(tr.Op)), width: d.Op(tr.Op).Spec.ResultWidth(), value: tr.Value, has: true,
		})
		events[tr.Start] = append(events[tr.Start], change{
			id: ident(n + tr.Instance), width: 32, value: uint64(tr.Op), has: true,
		})
		events[tr.Finish] = append(events[tr.Finish], change{
			id: ident(n + tr.Instance), width: 32, has: false,
		})
	}
	// An instance releasing and re-issuing at the same step must end up
	// issued: emit releases before issues within a step.
	var steps []int
	for t := range events {
		steps = append(steps, t)
	}
	sort.Ints(steps)

	fmt.Fprintf(w, "$dumpvars\n")
	for o := 0; o < n; o++ {
		fmt.Fprintf(w, "b%s %s\n", "x", ident(o))
	}
	for ii := range dp.Instances {
		fmt.Fprintf(w, "b%s %s\n", "x", ident(n+ii))
	}
	fmt.Fprintf(w, "$end\n")

	for _, t := range steps {
		fmt.Fprintf(w, "#%d\n", t)
		chs := events[t]
		sort.SliceStable(chs, func(a, b int) bool {
			// releases (has == false) first, then by identifier
			if chs[a].has != chs[b].has {
				return !chs[a].has
			}
			return chs[a].id < chs[b].id
		})
		// Deduplicate: the last change to an identifier within a step
		// wins (release overwritten by a same-step re-issue).
		last := map[string]change{}
		order := []string{}
		for _, c := range chs {
			if _, seen := last[c.id]; !seen {
				order = append(order, c.id)
			}
			last[c.id] = c
		}
		for _, id := range order {
			c := last[id]
			if !c.has {
				fmt.Fprintf(w, "bx %s\n", c.id)
				continue
			}
			fmt.Fprintf(w, "b%b %s\n", c.value, c.id)
		}
	}
	return nil
}
