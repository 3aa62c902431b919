package vsim

import (
	"testing"

	"repro/internal/rtl/netlist"
)

// FuzzSim fuzzes the simulator over everything the netlist front end
// accepts. Property: a source that parses either fails NewSim with an
// error, or survives a reset plus a few input changes and clock edges
// without panicking, with every signal held within its declared width.
// Set and Step may return errors (a divisor reaching zero); they may not
// panic.
//
// The seeds cover the constructs the emitter produces (mux chains, pads,
// part-selects, if/else chains, products), a combinational loop, and the
// operators the emitter never uses: /, % and <= inside an expression.
func FuzzSim(f *testing.F) {
	f.Add(`module m (
  input  wire clk,
  input  wire rst,
  input  wire [7:0] a,
  output wire [7:0] y
);
  reg [7:0] r;
  always @(posedge clk) begin
    if (rst) begin
      r <= 8'd0;
    end else if (a <= r) begin
      r <= a[7:0];
    end else begin
      r <= r + {4'd0, a[3:0]};
    end
  end
  assign y = r;
endmodule
`)
	f.Add(`module m (
  input  wire [3:0] a,
  output wire [15:0] y
);
  wire [7:0] p = {4'd0, a};
  assign y = (a == 4'd3) ? p * p : {8'h0, p};
endmodule
`)
	f.Add(`module m (
  input  wire clk,
  input  wire [2:0] cyc,
  input  wire [3:0] u_a,
  input  wire [3:0] u_b,
  output wire [7:0] y
);
  reg [7:0] r_p;
  wire [7:0] u_y = u_a * u_b;
  always @(posedge clk) begin
    r_p <= (cyc == 3'd0) ? u_y : ((cyc == 3'd1) ? u_y : r_p);
  end
  assign y = r_p;
endmodule
`)
	f.Add("module m (\n  input wire a,\n  output wire y\n);\n  wire p;\n  wire q;\n  assign p = q & a;\n  assign q = p | a;\n  assign y = q;\nendmodule\n")
	f.Add(`module m (
  input  wire clk,
  input  wire [3:0] a,
  input  wire [3:0] b,
  output wire [3:0] q,
  output wire [3:0] y
);
  reg [3:0] r;
  wire [3:0] d = b | 4'd1;
  assign q = a / d;
  assign y = (a % d) ^ r;
  always @(posedge clk) r <= (a <= b) ? a - b : ~b;
endmodule
`)
	f.Add("module m (input wire [3:0] a, input wire [3:0] b, output wire [3:0] y); assign y = a / b; endmodule")
	f.Fuzz(func(t *testing.T, src string) {
		m, err := netlist.Parse(src)
		if err != nil {
			return
		}
		d := netlist.Elaborate(m, "")
		s, err := NewSim(d)
		if err != nil {
			return // refusal is fine; panicking is not
		}
		var inputs, clocks []string
		for _, name := range d.Order {
			if d.Nets[name].Kind == netlist.NetInput {
				inputs = append(inputs, name)
			}
		}
		for _, al := range m.Always {
			clocks = append(clocks, al.Clock)
		}
		if d.Nets["rst"] != nil {
			_ = s.Set("rst", 1) // errors are allowed: the property is no panic
			for _, clk := range clocks {
				_ = s.Step(clk)
			}
			_ = s.Set("rst", 0)
		}
		for round := uint64(0); round < 4; round++ {
			for i, name := range inputs {
				_ = s.Set(name, round*0x9e3779b97f4a7c15+uint64(i))
			}
			for _, clk := range clocks {
				_ = s.Step(clk)
			}
		}
		for _, name := range d.Order {
			v, err := s.Get(name)
			if err != nil {
				t.Fatalf("Get(%q): %v", name, err)
			}
			if w := d.Nets[name].Width; w < 64 && v>>uint(w) != 0 {
				t.Fatalf("%s = %#x exceeds its %d-bit width", name, v, w)
			}
		}
	})
}
