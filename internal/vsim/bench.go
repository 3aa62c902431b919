package vsim

import (
	"fmt"

	"repro/internal/rtl/netlist"
)

// Bench drives a module that follows the internal/rtl interface contract:
// inputs clk, rst and start, an output done that rises when the iteration
// completes, plus arbitrary data ports. It hides the reset/start protocol
// so tests can treat the generated hardware as a function from input
// vectors to output vectors.
type Bench struct {
	Sim *Sim
	mod *netlist.Module
}

// NewBench parses and elaborates the Verilog source through the netlist
// front end and builds a simulator, verifying the module exposes the
// expected control ports.
func NewBench(src string) (*Bench, error) {
	m, err := netlist.Parse(src)
	if err != nil {
		return nil, err
	}
	d := netlist.Elaborate(m, "")
	sim, err := NewSim(d)
	if err != nil {
		return nil, err
	}
	for _, ctl := range []string{"clk", "rst", "start"} {
		if n := d.Nets[ctl]; n == nil || n.Kind != netlist.NetInput || n.Width != 1 {
			return nil, fmt.Errorf("vsim: module %s lacks 1-bit input %q", m.Name, ctl)
		}
	}
	if n := d.Nets["done"]; n == nil || n.Kind != netlist.NetOutput || n.Width != 1 {
		return nil, fmt.Errorf("vsim: module %s lacks 1-bit output \"done\"", m.Name)
	}
	return &Bench{Sim: sim, mod: m}, nil
}

// InputPorts returns the names of the module's data input ports (all
// inputs except the control signals), in declaration order.
func (b *Bench) InputPorts() []string {
	var names []string
	for _, p := range b.mod.Ports {
		if p.Input && p.Name != "clk" && p.Name != "rst" && p.Name != "start" {
			names = append(names, p.Name)
		}
	}
	return names
}

// OutputPorts returns the names of the module's data output ports, in
// declaration order.
func (b *Bench) OutputPorts() []string {
	var names []string
	for _, p := range b.mod.Ports {
		if !p.Input && p.Name != "done" {
			names = append(names, p.Name)
		}
	}
	return names
}

// step clocks one positive edge.
func (b *Bench) step() error { return b.Sim.Step("clk") }

// Reset applies a synchronous reset for one cycle.
func (b *Bench) Reset() error {
	if err := b.Sim.Set("rst", 1); err != nil {
		return err
	}
	if err := b.step(); err != nil {
		return err
	}
	return b.Sim.Set("rst", 0)
}

// RunIteration drives one complete run: applies the input vector, pulses
// start, clocks until done rises (or maxCycles elapse) and returns the
// output vector plus the number of edges taken after the start pulse.
// Inputs are held stable for the whole run, matching the generator's
// contract that primary operands are sampled at their operations' start
// steps.
func (b *Bench) RunIteration(inputs map[string]uint64, maxCycles int) (map[string]uint64, int, error) {
	for name, v := range inputs {
		if err := b.Sim.Set(name, v); err != nil {
			return nil, 0, err
		}
	}
	if err := b.Sim.Set("start", 1); err != nil {
		return nil, 0, err
	}
	if err := b.step(); err != nil {
		return nil, 0, err
	}
	if err := b.Sim.Set("start", 0); err != nil {
		return nil, 0, err
	}
	for cycles := 0; ; cycles++ {
		done, err := b.Sim.Get("done")
		if err != nil {
			return nil, 0, err
		}
		if done != 0 {
			outs := make(map[string]uint64)
			for _, name := range b.OutputPorts() {
				v, err := b.Sim.Get(name)
				if err != nil {
					return nil, 0, err
				}
				outs[name] = v
			}
			return outs, cycles, nil
		}
		if cycles >= maxCycles {
			return nil, cycles, fmt.Errorf("vsim: done did not rise within %d cycles", maxCycles)
		}
		if err := b.step(); err != nil {
			return nil, 0, err
		}
	}
}
