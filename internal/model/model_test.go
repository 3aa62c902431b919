package model

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSigCanonical(t *testing.T) {
	if got := Sig(3, 7); got != (Signature{Hi: 7, Lo: 3}) {
		t.Errorf("Sig(3,7) = %v, want 7x3", got)
	}
	if got := Sig(7, 3); got != (Signature{Hi: 7, Lo: 3}) {
		t.Errorf("Sig(7,3) = %v, want 7x3", got)
	}
	if got := AddSig(12); got != (Signature{Hi: 12, Lo: 12}) {
		t.Errorf("AddSig(12) = %v", got)
	}
}

func TestSignatureValid(t *testing.T) {
	cases := []struct {
		s    Signature
		want bool
	}{
		{Signature{8, 8}, true},
		{Signature{8, 1}, true},
		{Signature{0, 0}, false},
		{Signature{8, 0}, false},
		{Signature{3, 8}, false}, // non-canonical
	}
	for _, c := range cases {
		if got := c.s.Valid(); got != c.want {
			t.Errorf("%v.Valid() = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestCovers(t *testing.T) {
	big := Sig(16, 12)
	cases := []struct {
		op   Signature
		want bool
	}{
		{Sig(16, 12), true},
		{Sig(12, 12), true},
		{Sig(16, 16), false},
		{Sig(17, 1), false},
		{Sig(1, 1), true},
	}
	for _, c := range cases {
		if got := big.Covers(c.op); got != c.want {
			t.Errorf("16x12 covers %v = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestCoversPartialOrder(t *testing.T) {
	// Covering must be a partial order on canonical signatures:
	// reflexive, antisymmetric, transitive.
	rnd := rand.New(rand.NewSource(1))
	sig := func() Signature { return Sig(1+rnd.Intn(32), 1+rnd.Intn(32)) }
	for i := 0; i < 2000; i++ {
		a, b, c := sig(), sig(), sig()
		if !a.Covers(a) {
			t.Fatalf("not reflexive: %v", a)
		}
		if a.Covers(b) && b.Covers(a) && a != b {
			t.Fatalf("not antisymmetric: %v %v", a, b)
		}
		if a.Covers(b) && b.Covers(c) && !a.Covers(c) {
			t.Fatalf("not transitive: %v %v %v", a, b, c)
		}
	}
}

func TestJoinIsLeastUpperBound(t *testing.T) {
	f := func(a1, a2, b1, b2 uint8) bool {
		a := Sig(int(a1%32)+1, int(a2%32)+1)
		b := Sig(int(b1%32)+1, int(b2%32)+1)
		j := a.Join(b)
		if !j.Covers(a) || !j.Covers(b) {
			return false
		}
		// Least: any signature covering both covers the join.
		for hi := 1; hi <= 33; hi++ {
			for lo := 1; lo <= hi; lo++ {
				s := Signature{Hi: hi, Lo: lo}
				if s.Covers(a) && s.Covers(b) && !s.Covers(j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHardwareClass(t *testing.T) {
	if Add.HardwareClass() != Add || Sub.HardwareClass() != Add || Mul.HardwareClass() != Mul {
		t.Error("hardware class mapping broken")
	}
}

func TestOpTypeString(t *testing.T) {
	if Add.String() != "add" || Sub.String() != "sub" || Mul.String() != "mul" {
		t.Error("OpType.String broken")
	}
	if OpType(9).String() != "OpType(9)" {
		t.Errorf("unknown type string: %s", OpType(9))
	}
}

func TestKindString(t *testing.T) {
	if got := (Kind{Class: Mul, Sig: Sig(16, 12)}).String(); got != "mul 16x12" {
		t.Errorf("kind string = %q", got)
	}
	if got := (Kind{Class: Add, Sig: AddSig(12)}).String(); got != "add 12" {
		t.Errorf("kind string = %q", got)
	}
}

func TestKindCovers(t *testing.T) {
	adder := Kind{Class: Add, Sig: AddSig(12)}
	if !adder.Covers(Add, AddSig(8)) {
		t.Error("12-bit adder must cover 8-bit add")
	}
	if !adder.Covers(Sub, AddSig(12)) {
		t.Error("12-bit adder must cover 12-bit sub")
	}
	if adder.Covers(Mul, Sig(2, 2)) {
		t.Error("adder must not cover mul")
	}
	if adder.Covers(Add, AddSig(13)) {
		t.Error("12-bit adder must not cover 13-bit add")
	}
}

func TestDefaultLatency(t *testing.T) {
	lib := Default()
	cases := []struct {
		k    Kind
		want int
	}{
		{Kind{Add, AddSig(4)}, 2},
		{Kind{Add, AddSig(32)}, 2},
		{Kind{Mul, Sig(8, 8)}, 2},   // ceil(16/8)
		{Kind{Mul, Sig(9, 8)}, 3},   // ceil(17/8)
		{Kind{Mul, Sig(16, 16)}, 4}, // ceil(32/8)
		{Kind{Mul, Sig(25, 25)}, 7}, // ceil(50/8), Fig. 2's 25x25 mult
		{Kind{Mul, Sig(20, 18)}, 5}, // ceil(38/8), Fig. 2's 20x18 mult
	}
	for _, c := range cases {
		if got := lib.Latency(c.k); got != c.want {
			t.Errorf("latency(%v) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestDefaultArea(t *testing.T) {
	lib := Default()
	if got := lib.Area(Kind{Add, AddSig(12)}); got != 12 {
		t.Errorf("area(add 12) = %d", got)
	}
	if got := lib.Area(Kind{Mul, Sig(16, 12)}); got != 192 {
		t.Errorf("area(mul 16x12) = %d", got)
	}
}

func TestCostMonotoneUnderCovering(t *testing.T) {
	lib := Default()
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		a := Sig(1+rnd.Intn(32), 1+rnd.Intn(32))
		b := Sig(1+rnd.Intn(32), 1+rnd.Intn(32))
		if !a.Covers(b) {
			continue
		}
		for _, class := range []OpType{Add, Mul} {
			ka, kb := Kind{class, a}, Kind{class, b}
			if lib.Latency(ka) < lib.Latency(kb) {
				t.Fatalf("latency not monotone: %v < %v", ka, kb)
			}
			if lib.Area(ka) < lib.Area(kb) {
				t.Fatalf("area not monotone: %v < %v", ka, kb)
			}
		}
	}
}

func TestExtractKindsSimple(t *testing.T) {
	lib := Default()
	ops := []OpSpec{
		{Add, AddSig(8)},
		{Add, AddSig(12)},
		{Sub, AddSig(8)}, // duplicate kind with the first add
		{Mul, Sig(8, 8)},
	}
	kinds := ExtractKinds(ops, lib)
	want := []Kind{
		{Add, AddSig(8)},
		{Add, AddSig(12)},
		{Mul, Sig(8, 8)},
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d kinds %v, want %d", len(kinds), kinds, len(want))
	}
	for i, k := range want {
		if kinds[i] != k {
			t.Errorf("kinds[%d] = %v, want %v", i, kinds[i], k)
		}
	}
}

func TestExtractKindsJoinClosure(t *testing.T) {
	lib := Default()
	ops := []OpSpec{
		{Mul, Sig(12, 8)},
		{Mul, Sig(10, 9)},
	}
	kinds := ExtractKinds(ops, lib)
	// Join of 12x8 and 10x9 is 12x9, which covers both.
	found := false
	for _, k := range kinds {
		if k == (Kind{Mul, Sig(12, 9)}) {
			found = true
		}
	}
	if !found {
		t.Errorf("join closure missing 12x9: %v", kinds)
	}
	if len(kinds) != 3 {
		t.Errorf("want 3 kinds, got %v", kinds)
	}
}

func TestExtractKindsSortedAndUnique(t *testing.T) {
	lib := Default()
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rnd.Intn(12)
		ops := make([]OpSpec, n)
		for i := range ops {
			if rnd.Intn(2) == 0 {
				ops[i] = OpSpec{Add, AddSig(1 + rnd.Intn(24))}
			} else {
				ops[i] = OpSpec{Mul, Sig(1+rnd.Intn(24), 1+rnd.Intn(24))}
			}
		}
		kinds := ExtractKinds(ops, lib)
		seen := make(map[Kind]bool)
		for i, k := range kinds {
			if seen[k] {
				t.Fatalf("duplicate kind %v", k)
			}
			seen[k] = true
			if i > 0 {
				a, b := kinds[i-1], k
				if a.Class > b.Class {
					t.Fatalf("kinds not sorted by class: %v before %v", a, b)
				}
				if a.Class == b.Class && lib.Area(a) > lib.Area(b) {
					t.Fatalf("kinds not sorted by area: %v before %v", a, b)
				}
			}
		}
		// Every operation must be covered by at least one kind (its own).
		for _, o := range ops {
			ok := false
			for _, k := range kinds {
				if k.Covers(o.Type, o.Sig) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("operation %v uncovered by %v", o, kinds)
			}
		}
		// Closure property: join of any two same-class kinds is present.
		for _, a := range kinds {
			for _, b := range kinds {
				if a.Class != b.Class {
					continue
				}
				if !seen[Kind{a.Class, a.Sig.Join(b.Sig)}] {
					t.Fatalf("closure missing join of %v and %v", a, b)
				}
			}
		}
	}
}

func TestMinKindAndMinLatency(t *testing.T) {
	lib := Default()
	o := OpSpec{Sub, AddSig(9)}
	if o.MinKind() != (Kind{Add, AddSig(9)}) {
		t.Errorf("MinKind(sub 9) = %v", o.MinKind())
	}
	if MinLatency(o, lib) != 2 {
		t.Errorf("MinLatency(sub 9) = %d", MinLatency(o, lib))
	}
	m := OpSpec{Mul, Sig(20, 18)}
	if MinLatency(m, lib) != 5 {
		t.Errorf("MinLatency(mul 20x18) = %d", MinLatency(m, lib))
	}
}

func TestGrowthClassBreaksTiesByCountThenClass(t *testing.T) {
	// Equal pressure 4/(2·2) on both classes: more operations wins.
	limits := map[OpType]int{Add: 2, Mul: 2}
	busy := map[OpType]int{Add: 4, Mul: 4}
	if y, ok := GrowthClass(limits, map[OpType]int{Add: 3, Mul: 5}, busy, 2); !ok || y != Mul {
		t.Fatalf("count tie-break: got %v %v, want mul", y, ok)
	}
	// Equal pressure and count: the lower class wins on every call.
	for i := 0; i < 50; i++ {
		if y, ok := GrowthClass(limits, map[OpType]int{Add: 5, Mul: 5}, busy, 2); !ok || y != Add {
			t.Fatalf("class tie-break: got %v %v, want add", y, ok)
		}
	}
	// Higher pressure beats count; a class without headroom never grows.
	if y, ok := GrowthClass(limits, map[OpType]int{Add: 9, Mul: 3}, map[OpType]int{Add: 4, Mul: 5}, 2); !ok || y != Mul {
		t.Fatalf("pressure: got %v %v, want mul", y, ok)
	}
	if _, ok := GrowthClass(limits, map[OpType]int{Add: 2, Mul: 2}, busy, 2); ok {
		t.Fatal("grew a class already at one resource per operation")
	}
}

func TestSeedLimits(t *testing.T) {
	lib := Default()
	// Three 8x8 multiplies (2 cycles each) and one 8-bit add (2 cycles).
	specs := []OpSpec{
		{Mul, Sig(8, 8)}, {Mul, Sig(8, 8)}, {Mul, Sig(8, 8)}, {Sub, AddSig(8)},
	}
	limits, count, busy := SeedLimits(specs, lib, 4)
	if count[Mul] != 3 || count[Add] != 1 || busy[Mul] != 6 || busy[Add] != 2 {
		t.Fatalf("count %v busy %v", count, busy)
	}
	// ⌈6/4⌉ = 2 multipliers; ⌈2/4⌉ = 1 adder.
	if len(limits) != 2 || limits[Mul] != 2 || limits[Add] != 1 {
		t.Fatalf("span 4: limits %v", limits)
	}
	// A short span clamps to one resource per operation.
	if limits, _, _ := SeedLimits(specs, lib, 1); limits[Mul] != 3 || limits[Add] != 1 {
		t.Fatalf("span 1: limits %v", limits)
	}
	// A span below 1 seeds one resource per class.
	for _, span := range []int{0, -3} {
		if limits, _, _ := SeedLimits(specs, lib, span); limits[Mul] != 1 || limits[Add] != 1 {
			t.Fatalf("span %d: limits %v", span, limits)
		}
	}
	if limits, count, busy := SeedLimits(nil, lib, 4); len(limits)+len(count)+len(busy) != 0 {
		t.Fatalf("empty: %v %v %v", limits, count, busy)
	}
}
