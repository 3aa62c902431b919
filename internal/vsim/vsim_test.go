package vsim

import (
	"strings"
	"testing"

	"repro/internal/rtl/netlist"
)

// elaborate parses and elaborates src through the netlist front end; the
// source itself must be well formed.
func elaborate(t *testing.T, src string) *netlist.Design {
	t.Helper()
	m, err := netlist.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return netlist.Elaborate(m, "")
}

func newSim(t *testing.T, src string) *Sim {
	t.Helper()
	s, err := NewSim(elaborate(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestNewSimRejects lists designs that parse but cannot be simulated:
// unresolved references (reported by elaboration), and the conditions
// only the simulator checks (multiple drivers, selects past a net's
// width, nets wider than its 64-bit words, combinational cycles, and a
// division or modulo by zero in the settled reset state). Each must fail
// with an error, never a panic.
func TestNewSimRejects(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undeclared ref", "module m (input wire a, output wire y); assign y = b; endmodule", "undeclared"},
		{"assign to input", "module m (input wire a); assign a = 1'd1; endmodule", "input port"},
		{"double declaration", "module m (input wire a); reg a; endmodule", "already declared"},
		{"double wire drive", "module m (input wire a, output wire y); assign y = a; assign y = a; endmodule", "driven twice"},
		{"assign and always drive", "module m (input wire clk, output wire y); assign y = clk; always @(posedge clk) y <= 1'd0; endmodule", "driven twice"},
		{"select out of range", "module m (input wire [3:0] a, output wire y); assign y = a[4]; endmodule", "exceeds width"},
		{"select out of range in always", "module m (input wire clk, input wire [3:0] a); reg r; always @(posedge clk) if (a[7:4] == 4'd0) r <= a[0]; endmodule", "exceeds width"},
		{"wider than 64 bits", "module m (input wire [64:0] a); endmodule", "max 64"},
		{"combinational cycle", "module m (output wire y); wire a = b; wire b = a; assign y = a; endmodule", "cycle"},
		{"division by zero", "module m (input wire [3:0] a, input wire [3:0] b, output wire [3:0] y); assign y = a / b; endmodule", "division by zero"},
		{"modulo by zero", "module m (input wire [3:0] a, input wire [3:0] b, output wire [3:0] y); assign y = a % b; endmodule", "modulo by zero"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewSim(elaborate(t, c.src))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("NewSim error = %v, want one containing %q", err, c.want)
			}
		})
	}
}

// TestSimDivisionByZeroAfterSet: a divisor that reaches zero after a
// clean start is reported by the Set or Step that drove it there.
func TestSimDivisionByZeroAfterSet(t *testing.T) {
	s := newSim(t, `module m (input wire clk, input wire [3:0] b, output wire [3:0] y);
  reg [3:0] r;
  wire [3:0] d = b + 4'd2;
  wire [3:0] e = r + 4'd1;
  assign y = 4'd12 / d + 4'd12 % e;
  always @(posedge clk) r <= b;
endmodule`)
	if err := s.Set("b", 14); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("Set to a zero divisor: err = %v", err)
	}
	if err := s.Set("b", 15); err != nil {
		t.Fatal(err)
	}
	if y, _ := s.Get("y"); y != 12 {
		t.Fatalf("y = %d, want 12", y)
	}
	if err := s.Step("clk"); err == nil || !strings.Contains(err.Error(), "modulo by zero") {
		t.Fatalf("Step to a zero modulus: err = %v", err)
	}
}

// TestSimDeclaredWidths checks that every signal takes its width from
// its declaration: ports, regs, wire initialisers and assigns.
func TestSimDeclaredWidths(t *testing.T) {
	s := newSim(t, `
module shape (
  input  wire clk,
  input  wire [7:0] a,
  output wire [8:0] y,
  output reg  done
);
  reg [8:0] acc;
  wire [8:0] sum = acc + {1'd0, a};
  assign y = acc;
  always @(posedge clk) begin
    acc <= sum;
    done <= 1'b1;
  end
endmodule`)
	if err := s.Set("a", 0x1ff); err != nil { // masked to 8 bits
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Step("clk"); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range map[string]uint64{"a": 0xff, "acc": 0xfd, "y": 0xfd, "sum": 0x1fc, "done": 1} {
		if got, _ := s.Get(name); got != want {
			t.Errorf("%s = %#x, want %#x", name, got, want)
		}
	}
}

// TestSimSizedLiteralBases checks that literals of every base reach the
// simulator with their value.
func TestSimSizedLiteralBases(t *testing.T) {
	for lit, want := range map[string]uint64{"8'hff": 255, "4'b1010": 10, "3'o7": 7, "10'd1_000": 1000, "42": 42} {
		s := newSim(t, "module m (output wire [15:0] y); assign y = "+lit+"; endmodule")
		if got, _ := s.Get("y"); got != want {
			t.Errorf("%s = %d, want %d", lit, got, want)
		}
	}
}

// TestSimCounter checks clocked accumulation and reset behaviour.
func TestSimCounter(t *testing.T) {
	s := newSim(t, `
module counter (
  input  wire clk,
  input  wire rst,
  output wire [3:0] y
);
  reg [3:0] c;
  assign y = c;
  always @(posedge clk) begin
    if (rst) c <= 4'd0;
    else c <= c + 4'd1;
  end
endmodule`)
	if err := s.Set("rst", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Step("clk"); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("rst", 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if err := s.Step("clk"); err != nil {
			t.Fatal(err)
		}
		want := uint64(i % 16) // 4-bit wraparound
		if got, _ := s.Get("y"); got != want {
			t.Fatalf("after %d steps y = %d, want %d", i, got, want)
		}
	}
}

// TestSimNonBlocking checks that swaps work: both RHS evaluate before
// either commit.
func TestSimNonBlocking(t *testing.T) {
	s := newSim(t, `
module swap (input wire clk, output wire [3:0] ya, output wire [3:0] yb);
  reg [3:0] a;
  reg [3:0] b;
  reg init;
  assign ya = a;
  assign yb = b;
  always @(posedge clk) begin
    if (!init) begin
      a <= 4'd3;
      b <= 4'd12;
      init <= 1'd1;
    end else begin
      a <= b;
      b <= a;
    end
  end
endmodule`)
	if err := s.Step("clk"); err != nil { // init
		t.Fatal(err)
	}
	if err := s.Step("clk"); err != nil { // swap
		t.Fatal(err)
	}
	if a, _ := s.Get("ya"); a != 12 {
		t.Fatalf("a = %d after swap, want 12", a)
	}
	if b, _ := s.Get("yb"); b != 3 {
		t.Fatalf("b = %d after swap, want 3", b)
	}
}

// TestSimLastWriteWins: two sequential non-blocking writes to one target
// in one edge; the later statement's value commits.
func TestSimLastWriteWins(t *testing.T) {
	s := newSim(t, `
module lww (input wire clk, output wire [3:0] y);
  reg [3:0] r;
  assign y = r;
  always @(posedge clk) begin
    r <= 4'd1;
    r <= 4'd2;
  end
endmodule`)
	if err := s.Step("clk"); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("y"); v != 2 {
		t.Fatalf("y = %d, want 2 (last write wins)", v)
	}
}

// TestSimWireChain: wires depending on wires settle in dependency order
// regardless of declaration order (assign before its source).
func TestSimWireChain(t *testing.T) {
	s := newSim(t, `
module chain (input wire [3:0] a, output wire [3:0] y);
  assign y = mid;
  wire [3:0] mid = a + 4'd1;
endmodule`)
	if err := s.Set("a", 5); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("y"); v != 6 {
		t.Fatalf("y = %d, want 6", v)
	}
}

// TestSimArithmeticSemantics pins down the unsigned modulo behaviour the
// generated datapaths rely on: wraparound subtraction, full-width
// products, truncating part select, zero-extending concat.
func TestSimArithmeticSemantics(t *testing.T) {
	s := newSim(t, `
module arith (
  input  wire [7:0] a,
  input  wire [7:0] b,
  output wire [7:0] diff,
  output wire [15:0] prod,
  output wire [3:0] low,
  output wire [11:0] wide
);
  assign diff = a - b;
  assign prod = a * b;
  assign low  = a[3:0];
  assign wide = {4'd0, a};
endmodule`)
	if err := s.Set("a", 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("b", 5); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("diff"); v != 254 { // 3-5 mod 256
		t.Fatalf("diff = %d, want 254", v)
	}
	if v, _ := s.Get("prod"); v != 15 {
		t.Fatalf("prod = %d, want 15", v)
	}
	if err := s.Set("a", 0xAB); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("low"); v != 0xB {
		t.Fatalf("low = %#x, want 0xb", v)
	}
	if v, _ := s.Get("wide"); v != 0xAB {
		t.Fatalf("wide = %#x, want 0xab", v)
	}
}

func TestSimTernaryAndLogic(t *testing.T) {
	s := newSim(t, `
module pick (
  input  wire s,
  input  wire t,
  input  wire [3:0] a,
  input  wire [3:0] b,
  output wire [3:0] y,
  output wire both
);
  assign y = s ? a : b;
  assign both = s && !t;
endmodule`)
	mustSet := func(n string, v uint64) {
		t.Helper()
		if err := s.Set(n, v); err != nil {
			t.Fatal(err)
		}
	}
	mustSet("a", 7)
	mustSet("b", 9)
	mustSet("s", 1)
	mustSet("t", 0)
	if v, _ := s.Get("y"); v != 7 {
		t.Fatalf("y = %d, want 7", v)
	}
	if v, _ := s.Get("both"); v != 1 {
		t.Fatalf("both = %d, want 1", v)
	}
	mustSet("s", 0)
	if v, _ := s.Get("y"); v != 9 {
		t.Fatalf("y = %d, want 9", v)
	}
	if v, _ := s.Get("both"); v != 0 {
		t.Fatalf("both = %d, want 0", v)
	}
}

func TestSimErrors(t *testing.T) {
	s := newSim(t, `module m (input wire clk, input wire [3:0] a, output wire [3:0] y); assign y = a; endmodule`)
	if err := s.Set("y", 1); err == nil {
		t.Error("Set on output accepted")
	}
	if err := s.Set("nope", 1); err == nil {
		t.Error("Set on unknown accepted")
	}
	if _, err := s.Get("nope"); err == nil {
		t.Error("Get on unknown accepted")
	}
	if err := s.Step("nope"); err == nil {
		t.Error("Step on unknown clock accepted")
	}
}

func TestBenchRejectsWrongInterface(t *testing.T) {
	if _, err := NewBench(`module m (input wire clk, output wire y); assign y = 1'd0; endmodule`); err == nil {
		t.Fatal("bench accepted module without rst/start/done")
	}
}

// TestBenchHandshake runs a minimal handcrafted module that follows the
// generator's control contract and computes a+b with latency 2.
func TestBenchHandshake(t *testing.T) {
	src := `
module adder (
  input  wire clk,
  input  wire rst,
  input  wire start,
  input  wire [7:0] in_x_0,
  input  wire [7:0] in_x_1,
  output wire [7:0] out_x,
  output reg  done
);
  reg running;
  reg [1:0] cyc;
  reg [7:0] r_x;
  always @(posedge clk) begin
    if (rst) begin
      running <= 1'b0;
      done <= 1'b0;
      cyc <= 2'd0;
    end else if (start && !running) begin
      running <= 1'b1;
      done <= 1'b0;
      cyc <= 2'd0;
    end else if (running) begin
      if (cyc == 2'd1) begin
        running <= 1'b0;
        done <= 1'b1;
      end
      cyc <= cyc + 2'd1;
    end
  end
  reg [7:0] u0_a;
  reg [7:0] u0_b;
  wire [7:0] u0_y = u0_a + u0_b;
  always @(posedge clk) begin
    if (running) begin
      if (cyc == 2'd0) begin
        u0_a <= in_x_0;
        u0_b <= in_x_1;
      end
      if (cyc == 2'd1) begin
        r_x <= u0_y;
      end
    end
  end
  assign out_x = r_x;
endmodule`
	b, err := NewBench(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.InputPorts(); len(got) != 2 {
		t.Fatalf("input ports %v", got)
	}
	if got := b.OutputPorts(); len(got) != 1 || got[0] != "out_x" {
		t.Fatalf("output ports %v", got)
	}
	if err := b.Reset(); err != nil {
		t.Fatal(err)
	}
	outs, cycles, err := b.RunIteration(map[string]uint64{"in_x_0": 100, "in_x_1": 55}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if outs["out_x"] != 155 {
		t.Fatalf("out_x = %d, want 155", outs["out_x"])
	}
	if cycles < 2 || cycles > 4 {
		t.Fatalf("took %d cycles, expected about 2", cycles)
	}
	// A second iteration must work without another reset.
	outs, _, err = b.RunIteration(map[string]uint64{"in_x_0": 200, "in_x_1": 100}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if outs["out_x"] != 44 { // 300 mod 256
		t.Fatalf("out_x = %d, want 44", outs["out_x"])
	}
}

// TestBenchTimeout: done never rising must be reported, not loop.
func TestBenchTimeout(t *testing.T) {
	src := `
module stuck (
  input  wire clk,
  input  wire rst,
  input  wire start,
  output reg  done
);
  always @(posedge clk) begin
    if (rst) done <= 1'b0;
  end
endmodule`
	b, err := NewBench(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.RunIteration(nil, 5); err == nil {
		t.Fatal("timeout not reported")
	}
}
