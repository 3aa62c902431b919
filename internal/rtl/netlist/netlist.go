package netlist

import "fmt"

// NetKind classifies a net by its declaration.
type NetKind uint8

const (
	// NetInput is an input port: driven by the environment.
	NetInput NetKind = iota
	// NetOutput is an output port (wire or reg).
	NetOutput
	// NetWire is an internal combinational net.
	NetWire
	// NetReg is an internal storage element.
	NetReg
)

// String names the kind for diagnostics.
func (k NetKind) String() string {
	switch k {
	case NetInput:
		return "input port"
	case NetOutput:
		return "output port"
	case NetWire:
		return "wire"
	default:
		return "register"
	}
}

// DriverKind classifies how a net is driven.
type DriverKind uint8

const (
	// DriveAssign is a continuous assign or wire initialiser.
	DriveAssign DriverKind = iota
	// DriveAlways is a non-blocking assignment in an always block.
	DriveAlways
)

// Driver is one source of a net's value, with enough context to walk the
// dataflow: the driving expression, the guarding conditions (for
// sequential drivers), and which always block it sits in.
type Driver struct {
	Kind  DriverKind
	Expr  Expr
	Line  int
	Block int    // index into Module.Always for DriveAlways; -1 otherwise
	Conds []Expr // enclosing if conditions, outermost first (DriveAlways)
}

// Net is one named signal of the design with its declaration facts and
// every driver recorded during elaboration.
type Net struct {
	Name    string
	Width   int
	Kind    NetKind
	Reg     bool // storage element: reg decl or "output reg" port
	Line    int
	Drivers []Driver
}

// Design is the elaborated netlist: the net table plus the driver graph,
// ready for the analysis passes. Reference-level problems found during
// elaboration (undeclared identifiers, duplicate declarations, drives
// into input ports, out-of-range selects) are recorded as "resolve"
// diagnostics rather than hard errors, so a single run reports
// everything wrong with a module.
type Design struct {
	Module *Module
	File   string
	Nets   map[string]*Net
	Order  []string // declaration order, for deterministic reports

	resolveDiags []Diag
}

// Elaborate builds the netlist IR from a parsed module.
func Elaborate(m *Module, file string) *Design {
	d := &Design{Module: m, File: file, Nets: map[string]*Net{}}
	declare := func(name string, width int, kind NetKind, reg bool, line int) {
		if prev, dup := d.Nets[name]; dup {
			d.reportf(line, name, "%s %q already declared at line %d", kind, name, prev.Line)
			return
		}
		d.Nets[name] = &Net{Name: name, Width: width, Kind: kind, Reg: reg, Line: line}
		d.Order = append(d.Order, name)
	}
	for _, p := range m.Ports {
		kind := NetOutput
		if p.Input {
			kind = NetInput
		}
		declare(p.Name, p.Width, kind, p.Reg, p.Line)
	}
	for _, dc := range m.Decls {
		kind := NetWire
		if dc.Reg {
			kind = NetReg
		}
		declare(dc.Name, dc.Width, kind, dc.Reg, dc.Line)
	}
	for _, a := range m.Assigns {
		if a.Decl {
			declare(a.Target, a.Width, NetWire, false, a.Line)
		}
	}

	// Attach drivers and check references.
	for _, a := range m.Assigns {
		n := d.Nets[a.Target]
		if n == nil {
			d.reportf(a.Line, a.Target, "assign to undeclared identifier %q", a.Target)
		} else if n.Kind == NetInput {
			d.reportf(a.Line, a.Target, "assign drives input port %q", a.Target)
		} else {
			n.Drivers = append(n.Drivers, Driver{Kind: DriveAssign, Expr: a.Expr, Line: a.Line, Block: -1})
		}
		d.checkExpr(a.Expr)
	}
	for bi, al := range m.Always {
		if _, ok := d.Nets[al.Clock]; !ok {
			d.reportf(al.Line, al.Clock, "undeclared identifier %q used as clock", al.Clock)
		}
		d.attachStmts(al.Body, bi, nil)
	}
	return d
}

// attachStmts walks an always-block body, recording one DriveAlways per
// non-blocking assignment with the condition stack guarding it.
func (d *Design) attachStmts(stmts []Stmt, block int, conds []Expr) {
	for _, s := range stmts {
		switch s := s.(type) {
		case NonBlocking:
			n := d.Nets[s.Target]
			if n == nil {
				d.reportf(s.Line, s.Target, "assignment to undeclared identifier %q", s.Target)
			} else if n.Kind == NetInput {
				d.reportf(s.Line, s.Target, "assignment drives input port %q", s.Target)
			} else {
				n.Drivers = append(n.Drivers, Driver{
					Kind: DriveAlways, Expr: s.Expr, Line: s.Line, Block: block,
					Conds: append([]Expr(nil), conds...),
				})
			}
			d.checkExpr(s.Expr)
		case If:
			d.checkExpr(s.Cond)
			inner := append(append([]Expr(nil), conds...), s.Cond)
			d.attachStmts(s.Then, block, inner)
			d.attachStmts(s.Else, block, inner)
		}
	}
}

// checkExpr verifies every reference resolves. Select bounds are NOT a
// resolution concern: an out-of-range part-select is a width defect
// (checked by the width pass), and classifying it here would
// short-circuit the rest of the suite over a module that still has a
// perfectly analysable structure.
func (d *Design) checkExpr(e Expr) {
	switch e := e.(type) {
	case Num:
	case Ref:
		if _, ok := d.Nets[e.Name]; !ok {
			d.reportf(e.Line, e.Name, "undeclared identifier %q", e.Name)
		}
	case Select:
		d.checkExpr(e.X)
	case Unary:
		d.checkExpr(e.X)
	case Binary:
		d.checkExpr(e.X)
		d.checkExpr(e.Y)
	case Ternary:
		d.checkExpr(e.Cond)
		d.checkExpr(e.Then)
		d.checkExpr(e.Else)
	case Concat:
		for _, part := range e.Parts {
			d.checkExpr(part)
		}
	}
}

// ResolveDiags returns the reference-level problems found during
// elaboration. A design with any cannot be simulated or analysed
// further: some reference in it names no net, or drives one it may not.
func (d *Design) ResolveDiags() []Diag { return d.resolveDiags }

func (d *Design) reportf(line int, net string, format string, args ...any) {
	d.resolveDiags = append(d.resolveDiags, Diag{
		File: d.File, Line: line, Net: net, Analyzer: "resolve",
		Message: fmt.Sprintf(format, args...),
	})
}

// reads appends the names of every net an expression references.
func reads(e Expr, into []string) []string {
	switch e := e.(type) {
	case Ref:
		into = append(into, e.Name)
	case Select:
		into = reads(e.X, into)
	case Unary:
		into = reads(e.X, into)
	case Binary:
		into = reads(e.X, into)
		into = reads(e.Y, into)
	case Ternary:
		into = reads(e.Cond, into)
		into = reads(e.Then, into)
		into = reads(e.Else, into)
	case Concat:
		for _, part := range e.Parts {
			into = reads(part, into)
		}
	}
	return into
}
