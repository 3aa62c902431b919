package netlist_test

import (
	"sort"
	"testing"

	"repro/internal/rtl/netlist"
	"repro/internal/vsim"
)

// TestSimulatorCoversOperators ranges over every binary operator the
// parser accepts, plus its three unary operators, and checks that the
// concrete simulator evaluates each to the expected value. An operator
// added to the parser fails here until the simulator handles it.
func TestSimulatorCoversOperators(t *testing.T) {
	// Operands are 8'd12 and 8'd5; results are masked to 8 bits.
	binary := map[string]uint64{
		"+": 17, "-": 7, "*": 60, "/": 2, "%": 2,
		"==": 0, "!=": 1, "<": 0, ">": 1, "<=": 0, ">=": 1,
		"&&": 1, "||": 1, "&": 4, "|": 13, "^": 9,
		"<<": 128, ">>": 0,
	}
	unary := map[string]uint64{"!": 0, "~": 243, "-": 244}

	ops := make([]string, 0, len(netlist.Precedence))
	for op := range netlist.Precedence {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		want, ok := binary[op]
		if !ok {
			t.Errorf("parser operator %q has no expected value here", op)
			continue
		}
		checkOp(t, "8'd12 "+op+" 8'd5", op, want)
	}
	for op, want := range unary {
		checkOp(t, op+"8'd12", op, want)
	}
}

// checkOp simulates y = expr into an 8-bit output. Literal operands keep
// the divisor non-zero from the first settle on.
func checkOp(t *testing.T, expr, op string, want uint64) {
	t.Helper()
	src := "module m (output wire [7:0] y); assign y = " + expr + "; endmodule"
	m, err := netlist.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", expr, err)
	}
	var parsed string
	switch e := m.Assigns[0].Expr.(type) {
	case netlist.Binary:
		parsed = e.Op
	case netlist.Unary:
		parsed = e.Op
	}
	if parsed != op {
		t.Fatalf("%s parsed as %#v, want operator %q", expr, m.Assigns[0].Expr, op)
	}
	s, err := vsim.NewSim(netlist.Elaborate(m, ""))
	if err != nil {
		t.Fatalf("%s: %v", expr, err)
	}
	if got, _ := s.Get("y"); got != want {
		t.Errorf("%s = %d, want %d", expr, got, want)
	}
}
