package netlist

import (
	"strings"
	"testing"
)

// analyze is a test helper: run the full suite, fail on parse errors.
func analyze(t *testing.T, src string, opts Options) []Diag {
	t.Helper()
	diags, err := Analyze(src, opts)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return diags
}

// TestAnalyzeFixtures drives each analyzer through a module that fires it
// and a module that provably must not. want lists one substring per
// expected diagnostic; the number of diagnostics must match exactly, so a
// firing fixture also proves the other passes stay quiet on it.
func TestAnalyzeFixtures(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "clean sequential module",
			src: `module m (
  input  wire clk,
  input  wire [7:0] a,
  output wire [7:0] y
);
  reg [7:0] r;
  always @(posedge clk) begin
    r <= a;
  end
  assign y = r;
endmodule
`,
		},
		{
			name: "combloop: two-net cycle",
			src: `module m (
  input  wire clk,
  output wire y
);
  wire a = b;
  wire b = a;
  assign y = a & clk;
endmodule
`,
			want: []string{"combinational loop through a -> b -> a"},
		},
		{
			name: "combloop: self loop",
			src: `module m (
  input  wire clk,
  output wire y
);
  wire a = a & clk;
  assign y = a;
endmodule
`,
			want: []string{"combinational loop through a -> a"},
		},
		{
			name: "combloop: feedback through a register is fine",
			src: `module m (
  input  wire clk,
  output wire [3:0] y
);
  reg [3:0] acc;
  wire [3:0] next = acc + 4'd1;
  always @(posedge clk) begin
    acc <= next;
  end
  assign y = acc;
endmodule
`,
		},
		{
			name: "driver: undriven wire",
			src: `module m (
  input  wire clk,
  output wire [3:0] y
);
  wire [3:0] w;
  reg [3:0] r;
  always @(posedge clk) begin
    r <= w;
  end
  assign y = r;
endmodule
`,
			want: []string{`net "w" is undriven`},
		},
		{
			name: "driver: multiply-driven wire",
			src: `module m (
  input  wire a,
  output wire y
);
  assign y = a;
  assign y = !a;
endmodule
`,
			want: []string{`net "y" is multiply-driven by 2 continuous assignments`},
		},
		{
			name: "driver: register never written",
			src: `module m (
  input  wire a,
  output wire y
);
  reg r;
  assign y = r & a;
endmodule
`,
			want: []string{`register "r" is never written by any always block`},
		},
		{
			name: "driver: register written in two always blocks",
			src: `module m (
  input  wire clk,
  input  wire a,
  output wire y
);
  reg r;
  always @(posedge clk) begin
    r <= a;
  end
  always @(posedge clk) begin
    r <= !a;
  end
  assign y = r;
endmodule
`,
			want: []string{`register "r" is written in 2 always blocks`},
		},
		{
			name: "driver: register driven by continuous assign",
			src: `module m (
  input  wire clk,
  input  wire a,
  output wire y
);
  reg r;
  always @(posedge clk) begin
    r <= a;
  end
  assign r = a;
  assign y = r;
endmodule
`,
			want: []string{`register "r" is driven by a continuous assignment`},
		},
		{
			name: "driver: wire written from an always block",
			src: `module m (
  input  wire clk,
  input  wire a,
  output wire y
);
  wire w;
  always @(posedge clk) begin
    w <= a;
  end
  assign y = w & a;
endmodule
`,
			want: []string{`wire "w" is written from an always block (declare it reg)`},
		},
		{
			name: "deadlogic: register never reaching an output",
			src: `module m (
  input  wire clk,
  input  wire [3:0] a,
  output wire [3:0] y
);
  reg [3:0] keep;
  reg [3:0] dead;
  always @(posedge clk) begin
    keep <= a;
    dead <= a;
  end
  assign y = keep;
endmodule
`,
			want: []string{`register "dead" cannot reach any output port (dead logic)`},
		},
		{
			name: "deadlogic: control dependence counts as reaching",
			src: `module m (
  input  wire clk,
  input  wire [3:0] a,
  output wire [3:0] y
);
  reg [3:0] cyc;
  reg [3:0] r;
  always @(posedge clk) begin
    cyc <= cyc + 4'd1;
    if (cyc == 4'd3) begin
      r <= a;
    end
  end
  assign y = r;
endmodule
`,
		},
		{
			name: "deadlogic: skipped for output-free modules",
			src: `module m (
  input wire clk
);
  reg r;
  always @(posedge clk) begin
    r <= !r;
  end
endmodule
`,
		},
		{
			name: "width: mux of wide registers into a narrow wire",
			src: `module m (
  input  wire clk,
  input  wire [7:0] a,
  output wire [3:0] y
);
  reg [7:0] r;
  always @(posedge clk) begin
    r <= a;
  end
  assign y = clk ? r : 8'd0;
endmodule
`,
			want: []string{`implicit truncation: expression value may need 8 bits, but "y" is 4 bits wide`},
		},
		{
			name: "width: product wider than its context",
			src: `module m (
  input  wire clk,
  input  wire [7:0] a,
  input  wire [7:0] b,
  output wire [7:0] y
);
  reg [7:0] prod;
  always @(posedge clk) begin
    prod <= a * b;
  end
  assign y = prod;
endmodule
`,
			want: []string{"product may need 16 bits but is computed in a 8-bit context"},
		},
		{
			name: "width: interval proves a narrow product lossless",
			src: `module m (
  input  wire clk,
  input  wire [3:0] a,
  input  wire [3:0] b,
  output wire [7:0] y
);
  wire [7:0] pa = {4'd0, a};
  wire [7:0] pb = {4'd0, b};
  reg [7:0] prod;
  always @(posedge clk) begin
    prod <= pa * pb;
  end
  assign y = prod;
endmodule
`,
		},
		{
			name: "width: left shift out of range",
			src: `module m (
  input  wire [3:0] a,
  output wire [3:0] y
);
  assign y = a << 2;
endmodule
`,
			want: []string{"left shift may need 6 bits but is computed in a 4-bit context"},
		},
		{
			name: "width: same-width add wrap is sanctioned ring arithmetic",
			src: `module m (
  input  wire [7:0] a,
  input  wire [7:0] b,
  output wire [7:0] y
);
  assign y = a + b;
endmodule
`,
		},
		{
			name: "width: explicit part-select truncation is sanctioned",
			src: `module m (
  input  wire [7:0] a,
  output wire [3:0] y
);
  assign y = a[3:0];
endmodule
`,
		},
		{
			name: "resolve: undeclared identifier short-circuits the suite",
			src: `module m (
  input  wire clk,
  output wire y
);
  assign y = ghost;
endmodule
`,
			want: []string{`undeclared identifier "ghost"`},
		},
		{
			name: "width: select past declared width",
			src: `module m (
  input  wire [3:0] a,
  output wire y
);
  assign y = a[4];
endmodule
`,
			want: []string{`part-select a[4:4] reads past the declared width 4 of "a"`},
		},
		{
			name: "width: select bounds checked inside always and conditions",
			src: `module m (
  input  wire clk,
  input  wire [3:0] a,
  output reg [2:0] y
);
  always @(posedge clk) begin
    if (a[5]) begin
      y <= a[4:2];
    end
  end
endmodule
`,
			want: []string{
				`part-select a[5:5] reads past the declared width 4 of "a"`,
				`part-select a[4:2] reads past the declared width 4 of "a"`,
			},
		},
		{
			name: "width: out-of-range select does not short-circuit the suite",
			src: `module m (
  input  wire [3:0] a,
  output wire y
);
  wire dead = a[0];
  assign y = a[4];
endmodule
`,
			want: []string{
				`part-select a[4:4] reads past the declared width 4 of "a"`,
				`wire "dead" cannot reach any output port (dead logic)`,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := analyze(t, tc.src, Options{})
			if len(diags) != len(tc.want) {
				t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(tc.want), renderAll(diags))
			}
			for _, want := range tc.want {
				found := false
				for _, d := range diags {
					if strings.Contains(d.String(), want) {
						found = true
					}
				}
				if !found {
					t.Errorf("no diagnostic contains %q:\n%s", want, renderAll(diags))
				}
			}
		})
	}
}

func renderAll(diags []Diag) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	if b.Len() == 0 {
		return "  (none)\n"
	}
	return b.String()
}

// TestAllowComment checks that //rtl:allow suppresses exactly the named
// analyzer on its own line and the line below, and nothing else.
func TestAllowComment(t *testing.T) {
	src := `module m (
  input  wire a,
  output wire y
);
  assign y = a;
  //rtl:allow driver -- dual drive reviewed, second assign wins in tests
  assign y = !a;
endmodule
`
	if diags := analyze(t, src, Options{}); len(diags) != 0 {
		t.Fatalf("allow did not suppress:\n%s", renderAll(diags))
	}
	// The same module without the annotation must fire.
	bare := strings.Replace(src, "  //rtl:allow driver -- dual drive reviewed, second assign wins in tests\n", "", 1)
	if diags := analyze(t, bare, Options{}); len(diags) != 1 {
		t.Fatalf("expected 1 diagnostic without allow, got:\n%s", renderAll(diags))
	}
	// An allow naming a different analyzer must not suppress — and the
	// pragma itself, now excusing nothing, is reported as stale.
	wrong := strings.Replace(src, "rtl:allow driver", "rtl:allow width", 1)
	diags := analyze(t, wrong, Options{})
	joined := renderAll(diags)
	if len(diags) != 2 ||
		!strings.Contains(joined, "[driver]") ||
		!strings.Contains(joined, `[allow] //rtl:allow width suppresses no width finding`) {
		t.Fatalf("want the driver finding plus a stale-allow finding, got:\n%s", joined)
	}
}

// TestStaleAllow checks that an //rtl:allow pragma which suppresses
// nothing is itself reported — except when the suite short-circuited on
// resolve errors, where "suppressed nothing" would be unfounded.
func TestStaleAllow(t *testing.T) {
	src := `module m (
  input  wire a,
  output wire y
);
  //rtl:allow driver -- leftover from a dual-drive experiment
  assign y = a;
endmodule
`
	diags := analyze(t, src, Options{})
	if len(diags) != 1 || diags[0].Analyzer != "allow" || diags[0].Line != 5 ||
		!strings.Contains(diags[0].Message, "suppresses no driver finding") {
		t.Fatalf("want one stale-allow finding at line 5, got:\n%s", renderAll(diags))
	}

	// The stale-allow finding is not itself suppressible: stacking an
	// allow for "allow" on the same line changes nothing (and is stale
	// too).
	stacked := strings.Replace(src, "//rtl:allow driver", "//rtl:allow driver,allow", 1)
	diags = analyze(t, stacked, Options{})
	if len(diags) != 2 {
		t.Fatalf("want two stale-allow findings, got:\n%s", renderAll(diags))
	}
	for _, d := range diags {
		if d.Analyzer != "allow" {
			t.Fatalf("want only [allow] findings, got:\n%s", renderAll(diags))
		}
	}

	// Resolve errors short-circuit the suite; the allow is left alone.
	broken := strings.Replace(src, "assign y = a;", "assign y = ghost;", 1)
	diags = analyze(t, broken, Options{})
	for _, d := range diags {
		if d.Analyzer == "allow" {
			t.Fatalf("stale-allow reported despite resolve short-circuit:\n%s", renderAll(diags))
		}
	}

	// A prose mention of the pragma syntax inside an ordinary comment
	// must not register as an exception.
	prose := strings.Replace(src,
		"//rtl:allow driver -- leftover from a dual-drive experiment",
		"// document exceptions with //rtl:allow driver -- reason", 1)
	if diags := analyze(t, prose, Options{}); len(diags) != 0 {
		t.Fatalf("prose mention of the pragma registered:\n%s", renderAll(diags))
	}
}

// TestInterfacePass checks the iface analyzer against a wordlength spec.
func TestInterfacePass(t *testing.T) {
	src := `module m (
  input  wire [3:0] in_a,
  output wire [3:0] out_y
);
  assign out_y = in_a;
endmodule
`
	diags := analyze(t, src, Options{ExpectedWidths: map[string]int{
		"in_a": 4, "out_y": 8, "in_b": 4,
	}})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2:\n%s", len(diags), renderAll(diags))
	}
	joined := renderAll(diags)
	for _, want := range []string{
		`wordlength spec expects net "in_b" (4 bits), not found in module`,
		`net "out_y" is 4 bits, but the operation wordlength spec requires 8 bits`,
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in:\n%s", want, joined)
		}
	}
}

// TestDiagString pins the vet-style rendering used by cmd/mwlrtl.
func TestDiagString(t *testing.T) {
	d := Diag{File: "fir.v", Line: 12, Net: "u0_y", Analyzer: "width", Message: "boom"}
	if got, want := d.String(), "fir.v:12: [width] boom"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	anon := Diag{Line: 3, Analyzer: "driver", Message: "x"}
	if got, want := anon.String(), "<verilog>:3: [driver] x"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// TestPrintFixedPoint: printing is a fixed point under reparsing on a
// module exercising every construct the printer knows.
func TestPrintFixedPoint(t *testing.T) {
	src := `module fir (
  input  wire clk,
  input  wire start,
  input  wire [7:0] in_a,
  output reg  done,
  output wire [7:0] out_y
);
  reg [3:0] cyc;
  reg [15:0] r_p;
  wire [7:0] pad = {4'h0, in_a[3:0]};
  wire [15:0] prod = pad * pad;
  wire sel = (cyc == 4'd3) || (cyc >= 4'd9) && !start;
  always @(posedge clk) begin
    if (start) begin
      cyc <= 4'd0;
      done <= 1'b0;
    end else if (cyc == 4'd9) begin
      done <= 1'b1;
    end else begin
      cyc <= cyc + 4'd1;
      if (sel) r_p <= prod;
    end
  end
  assign out_y = sel ? r_p[7:0] : pad;
endmodule
`
	m1, err := Parse(src)
	if err != nil {
		t.Fatalf("parse original: %v", err)
	}
	p1 := Print(m1)
	m2, err := Parse(p1)
	if err != nil {
		t.Fatalf("reparse printed form: %v\n%s", err, p1)
	}
	p2 := Print(m2)
	if p1 != p2 {
		t.Fatalf("print not a fixed point:\n-- first --\n%s\n-- second --\n%s", p1, p2)
	}
}

// TestParseErrors pins the parse-failure messages other layers rely on.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{
			name: "unbalanced begin",
			src:  "module m (\n  input wire clk\n);\n  always @(posedge clk) begin\nendmodule\n",
			want: "begin/end unbalanced",
		},
		{
			name: "missing endmodule",
			src:  "module m (\n  input wire clk\n);\n",
			want: "missing endmodule",
		},
		{
			name: "negative bit index in declaration",
			src:  "module m (\n  input wire [-1:0] x\n);\nendmodule\n",
			want: "negative bit index",
		},
		{
			name: "negative bit index in select",
			src:  "module m (\n  input wire [3:0] x,\n  output wire y\n);\n  assign y = x[-1];\nendmodule\n",
			want: "negative bit index",
		},
		{
			name: "literal overflowing its width",
			src:  "module m (\n  input wire clk\n);\n  reg [1:0] r;\n  always @(posedge clk) r <= 2'd7;\nendmodule\n",
			want: "overflows its width",
		},
		{
			name: "blocking assignment rejected",
			src:  "module m (\n  input wire clk\n);\n  reg r;\n  always @(posedge clk) r = 1'b1;\nendmodule\n",
			want: "only non-blocking assignment",
		},
		{
			name: "unterminated block comment",
			src:  "module m (\n  input wire clk\n);\n/* open\nendmodule\n",
			want: "unterminated block comment",
		},
		{
			name: "missing module keyword",
			src:  "wire x = 1;\n",
			want: `expected "module"`,
		},
		{
			name: "declaration range not ending at 0",
			src:  "module m (\n  input wire [3:1] a\n);\nendmodule\n",
			want: "must end at 0",
		},
		{
			name: "unsupported initial item",
			src:  "module m (\n  input wire a\n);\n  initial begin end\nendmodule\n",
			want: "unsupported module item",
		},
		{
			name: "unknown literal base",
			src:  "module m (\n  output wire [3:0] y\n);\n  assign y = 4'x12;\nendmodule\n",
			want: "unknown literal base",
		},
		{
			name: "truncated sized literal",
			src:  "module m (\n  output wire [3:0] y\n);\n  assign y = 4'",
			want: "truncated sized literal",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got: %v", tc.want, err)
			}
		})
	}
}
