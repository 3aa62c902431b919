// Package vsim clocks the synthesisable Verilog subset emitted by
// internal/rtl on concrete values, providing an independent execution
// path for the generated hardware description: the emitted source text
// is parsed into the internal/rtl/netlist IR, simulated cycle by cycle,
// and its port-level behaviour is compared against the fixed-point
// reference. A bug in text generation (wrong bit-select, missed padding,
// misplaced schedule event) surfaces here as a value mismatch even when
// the in-memory structures that produced the text were correct.
//
// The simulator shares only the front end with the symbolic prover in
// internal/rtl/netlist/sem. It evaluates with its own uint64 arithmetic,
// not through sem or model.Arith, so a bug in the prover's semantics
// cannot hide the same bug here.
package vsim

import (
	"fmt"

	"repro/internal/rtl/netlist"
)

// Sim is a cycle simulator for one elaborated netlist.Design. Signal
// values are held masked to their declared widths; combinational
// definitions are recomputed in dependency order after every input
// change and clock edge; always blocks use standard non-blocking
// semantics (all right-hand sides evaluate against the pre-edge state,
// then commit together).
type Sim struct {
	d     *netlist.Design
	vals  map[string]uint64
	order []netlist.Assign // combinational definitions, evaluation order

	pending map[string]uint64 // scratch for non-blocking commits
}

// NewSim checks that the design can be simulated, orders its
// combinational definitions topologically (reporting combinational
// cycles) and settles them with every signal zero-initialised. A design
// with resolve diagnostics, a net wider than 64 bits, a continuously
// assigned net with any other driver, or a part-select past a net's
// width is refused.
func NewSim(d *netlist.Design) (*Sim, error) {
	if diags := d.ResolveDiags(); len(diags) > 0 {
		return nil, fmt.Errorf("vsim: %s", diags[0])
	}
	for _, name := range d.Order {
		if w := d.Nets[name].Width; w > 64 {
			return nil, fmt.Errorf("vsim: %q is %d bits wide (max 64)", name, w)
		}
	}
	m := d.Module
	checkSelects := func(e netlist.Expr) error {
		return visit(e, func(e netlist.Expr) error {
			sel, ok := e.(netlist.Select)
			if !ok {
				return nil
			}
			// The parser only builds selects of a named net.
			ref := sel.X.(netlist.Ref)
			if w := d.Nets[ref.Name].Width; sel.Hi >= w {
				return fmt.Errorf("vsim: line %d: select %s[%d:%d] exceeds width %d", sel.Line, ref.Name, sel.Hi, sel.Lo, w)
			}
			return nil
		})
	}
	byName := make(map[string]int, len(m.Assigns))
	for i, a := range m.Assigns {
		if len(d.Nets[a.Target].Drivers) > 1 {
			return nil, fmt.Errorf("vsim: %q driven twice", a.Target)
		}
		byName[a.Target] = i
		if err := checkSelects(a.Expr); err != nil {
			return nil, err
		}
	}
	for _, al := range m.Always {
		if err := walkStmts(al.Body, checkSelects); err != nil {
			return nil, err
		}
	}

	s := &Sim{d: d, vals: make(map[string]uint64), pending: make(map[string]uint64)}
	// DFS topological order over definition-to-definition dependencies.
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make([]int, len(m.Assigns))
	var dfs func(i int) error
	dfs = func(i int) error {
		switch state[i] {
		case visiting:
			return fmt.Errorf("vsim: combinational cycle through %q", m.Assigns[i].Target)
		case done:
			return nil
		}
		state[i] = visiting
		err := visit(m.Assigns[i].Expr, func(e netlist.Expr) error {
			if r, ok := e.(netlist.Ref); ok {
				if j, ok := byName[r.Name]; ok {
					return dfs(j)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		state[i] = done
		s.order = append(s.order, m.Assigns[i])
		return nil
	}
	for i := range m.Assigns {
		if err := dfs(i); err != nil {
			return nil, err
		}
	}
	if err := s.recompute(); err != nil {
		return nil, err
	}
	return s, nil
}

// Set drives an input port and settles combinational logic.
func (s *Sim) Set(name string, v uint64) error {
	n := s.d.Nets[name]
	if n == nil || n.Kind != netlist.NetInput {
		return fmt.Errorf("vsim: %q is not an input port", name)
	}
	s.vals[name] = maskTo(v, n.Width)
	return s.recompute()
}

// Get returns the current value of any signal (port, reg or wire).
func (s *Sim) Get(name string) (uint64, error) {
	if s.d.Nets[name] == nil {
		return 0, fmt.Errorf("vsim: unknown signal %q", name)
	}
	return s.vals[name], nil
}

// Step applies one positive edge of the named clock: every always block
// sensitive to it evaluates against the pre-edge state, updates commit
// together, then combinational logic settles.
func (s *Sim) Step(clock string) error {
	if s.d.Nets[clock] == nil {
		return fmt.Errorf("vsim: unknown clock %q", clock)
	}
	clear(s.pending)
	for _, a := range s.d.Module.Always {
		if a.Clock != clock {
			continue
		}
		if err := s.exec(a.Body); err != nil {
			return err
		}
	}
	for name, v := range s.pending {
		s.vals[name] = maskTo(v, s.d.Nets[name].Width)
	}
	return s.recompute()
}

// exec runs statements, accumulating non-blocking updates. Conditions
// read committed (pre-edge) values; an earlier pending write to the same
// target in this edge is overwritten, matching event semantics.
func (s *Sim) exec(stmts []netlist.Stmt) error {
	for _, st := range stmts {
		switch st := st.(type) {
		case netlist.NonBlocking:
			v, err := s.eval(st.Expr)
			if err != nil {
				return err
			}
			s.pending[st.Target] = v
		case netlist.If:
			c, err := s.eval(st.Cond)
			if err != nil {
				return err
			}
			if c != 0 {
				if err := s.exec(st.Then); err != nil {
					return err
				}
			} else if err := s.exec(st.Else); err != nil {
				return err
			}
		default:
			return fmt.Errorf("vsim: unknown statement %T", st)
		}
	}
	return nil
}

// recompute settles every combinational definition in dependency order.
// Evaluation fails only on a value the subset leaves undefined, such as
// a division by zero.
func (s *Sim) recompute() error {
	for _, a := range s.order {
		v, err := s.eval(a.Expr)
		if err != nil {
			return fmt.Errorf("%w in the assign to %q at line %d", err, a.Target, a.Line)
		}
		s.vals[a.Target] = maskTo(v, s.d.Nets[a.Target].Width)
	}
	return nil
}

// eval computes an expression against committed values. Arithmetic is
// performed in 64 bits; stored signals are invariantly masked to their
// declared widths, and assignment masks the result, which reproduces the
// unsigned modulo semantics of the generated subset.
func (s *Sim) eval(e netlist.Expr) (uint64, error) {
	switch e := e.(type) {
	case netlist.Num:
		return e.Val, nil
	case netlist.Ref:
		return s.vals[e.Name], nil
	case netlist.Select:
		v, err := s.eval(e.X)
		if err != nil {
			return 0, err
		}
		return maskTo(v>>uint(e.Lo), e.Hi-e.Lo+1), nil
	case netlist.Unary:
		v, err := s.eval(e.X)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case "!":
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		case "~":
			return ^v, nil // masked at assignment
		case "-":
			return -v, nil
		}
		return 0, fmt.Errorf("vsim: unknown unary %q", e.Op)
	case netlist.Binary:
		x, err := s.eval(e.X)
		if err != nil {
			return 0, err
		}
		y, err := s.eval(e.Y)
		if err != nil {
			return 0, err
		}
		return evalBinary(e.Op, x, y)
	case netlist.Ternary:
		c, err := s.eval(e.Cond)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return s.eval(e.Then)
		}
		return s.eval(e.Else)
	case netlist.Concat:
		var v uint64
		for _, part := range e.Parts {
			pv, err := s.eval(part)
			if err != nil {
				return 0, err
			}
			w := s.exprWidth(part)
			v = v<<uint(w) | maskTo(pv, w)
		}
		return v, nil
	default:
		return 0, fmt.Errorf("vsim: unknown expression %T", e)
	}
}

func evalBinary(op string, x, y uint64) (uint64, error) {
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case "+":
		return x + y, nil
	case "-":
		return x - y, nil
	case "*":
		return x * y, nil
	case "/":
		if y == 0 {
			return 0, fmt.Errorf("vsim: division by zero")
		}
		return x / y, nil
	case "%":
		if y == 0 {
			return 0, fmt.Errorf("vsim: modulo by zero")
		}
		return x % y, nil
	case "==":
		return b2u(x == y), nil
	case "!=":
		return b2u(x != y), nil
	case "<":
		return b2u(x < y), nil
	case ">":
		return b2u(x > y), nil
	case "<=":
		return b2u(x <= y), nil
	case ">=":
		return b2u(x >= y), nil
	case "&&":
		return b2u(x != 0 && y != 0), nil
	case "||":
		return b2u(x != 0 || y != 0), nil
	case "&":
		return x & y, nil
	case "|":
		return x | y, nil
	case "^":
		return x ^ y, nil
	case "<<":
		if y >= 64 {
			return 0, nil
		}
		return x << y, nil
	case ">>":
		if y >= 64 {
			return 0, nil
		}
		return x >> y, nil
	}
	return 0, fmt.Errorf("vsim: unknown binary operator %q", op)
}

// exprWidth is the self-determined width of an expression, needed for
// concatenation packing. Signals use declared widths; sized literals
// their own; comparisons and logical operators are 1 bit.
func (s *Sim) exprWidth(e netlist.Expr) int {
	switch e := e.(type) {
	case netlist.Num:
		if e.Width > 0 {
			return e.Width
		}
		return 32 // Verilog's unsized-literal default
	case netlist.Ref:
		return s.d.Nets[e.Name].Width
	case netlist.Select:
		return e.Hi - e.Lo + 1
	case netlist.Unary:
		if e.Op == "!" {
			return 1
		}
		return s.exprWidth(e.X)
	case netlist.Binary:
		switch e.Op {
		case "==", "!=", "<", ">", "<=", ">=", "&&", "||":
			return 1
		}
		return max(s.exprWidth(e.X), s.exprWidth(e.Y))
	case netlist.Ternary:
		return max(s.exprWidth(e.Then), s.exprWidth(e.Else))
	case netlist.Concat:
		w := 0
		for _, p := range e.Parts {
			w += s.exprWidth(p)
		}
		return w
	}
	return 0
}

// visit calls f on e and then on each of its sub-expressions, stopping
// at the first error.
func visit(e netlist.Expr, f func(netlist.Expr) error) error {
	if err := f(e); err != nil {
		return err
	}
	var subs []netlist.Expr
	switch e := e.(type) {
	case netlist.Select:
		subs = []netlist.Expr{e.X}
	case netlist.Unary:
		subs = []netlist.Expr{e.X}
	case netlist.Binary:
		subs = []netlist.Expr{e.X, e.Y}
	case netlist.Ternary:
		subs = []netlist.Expr{e.Cond, e.Then, e.Else}
	case netlist.Concat:
		subs = e.Parts
	}
	for _, sub := range subs {
		if err := visit(sub, f); err != nil {
			return err
		}
	}
	return nil
}

// walkStmts calls f on every expression in an always-block body.
func walkStmts(stmts []netlist.Stmt, f func(netlist.Expr) error) error {
	for _, st := range stmts {
		switch st := st.(type) {
		case netlist.NonBlocking:
			if err := f(st.Expr); err != nil {
				return err
			}
		case netlist.If:
			if err := f(st.Cond); err != nil {
				return err
			}
			if err := walkStmts(st.Then, f); err != nil {
				return err
			}
			if err := walkStmts(st.Else, f); err != nil {
				return err
			}
		}
	}
	return nil
}

func maskTo(v uint64, w int) uint64 {
	if w >= 64 || w <= 0 {
		return v
	}
	return v & (1<<uint(w) - 1)
}
