package value

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"xqp/internal/storage"
)

func TestItemStrings(t *testing.T) {
	cases := []struct {
		it   Item
		want string
	}{
		{Str("x"), "x"},
		{Int(42), "42"},
		{Dbl(3.5), "3.5"},
		{Dbl(4), "4"},
		{Dbl(math.Inf(1)), "INF"},
		{Dbl(math.Inf(-1)), "-INF"},
		{Bool(true), "true"},
		{Bool(false), "false"},
	}
	for _, c := range cases {
		if got := c.it.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.it, got, c.want)
		}
	}
}

func TestNodeItemString(t *testing.T) {
	s := storage.MustLoad(`<a>x<b>y</b></a>`)
	n := Node{Store: s, Ref: s.DocumentElement()}
	if n.String() != "xy" {
		t.Fatalf("node string = %q", n.String())
	}
}

func TestEBV(t *testing.T) {
	s := storage.MustLoad(`<a/>`)
	node := Node{Store: s, Ref: s.DocumentElement()}
	cases := []struct {
		seq  Sequence
		want bool
	}{
		{nil, false},
		{Singleton(Bool(true)), true},
		{Singleton(Bool(false)), false},
		{Singleton(Str("")), false},
		{Singleton(Str("x")), true},
		{Singleton(Int(0)), false},
		{Singleton(Int(7)), true},
		{Singleton(Dbl(0)), false},
		{Singleton(Dbl(math.NaN())), false},
		{Singleton(node), true},
		{Sequence{node, node}, true},
	}
	for i, c := range cases {
		got, err := EBV(c.seq)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != c.want {
			t.Errorf("case %d: EBV = %v, want %v", i, got, c.want)
		}
	}
	if _, err := EBV(Sequence{Int(1), Int(2)}); err == nil {
		t.Error("EBV of multi-atomic sequence did not error")
	}
}

func TestCompareGeneral(t *testing.T) {
	ok := func(op CmpOp, l, r Sequence) bool {
		t.Helper()
		got, err := CompareGeneral(op, l, r)
		if err != nil {
			t.Fatalf("compare: %v", err)
		}
		return got
	}
	if !ok(CmpEq, Singleton(Int(3)), Singleton(Int(3))) {
		t.Error("3 = 3 failed")
	}
	if ok(CmpEq, Singleton(Int(3)), Singleton(Int(4))) {
		t.Error("3 = 4 succeeded")
	}
	if !ok(CmpLt, Singleton(Str("2")), Singleton(Int(10))) {
		t.Error(`"2" < 10 with numeric coercion failed`)
	}
	if !ok(CmpGt, Singleton(Str("b")), Singleton(Str("a"))) {
		t.Error(`"b" > "a" failed`)
	}
	// Existential semantics over sequences.
	if !ok(CmpEq, Sequence{Int(1), Int(5)}, Sequence{Int(5), Int(9)}) {
		t.Error("(1,5) = (5,9) failed")
	}
	if ok(CmpEq, nil, Singleton(Int(1))) {
		t.Error("() = 1 succeeded")
	}
	// NaN comparisons.
	if ok(CmpEq, Singleton(Dbl(math.NaN())), Singleton(Dbl(1))) {
		t.Error("NaN = 1 succeeded")
	}
	if !ok(CmpNe, Singleton(Dbl(math.NaN())), Singleton(Dbl(1))) {
		t.Error("NaN != 1 failed")
	}
	// Booleans.
	if !ok(CmpEq, Singleton(Bool(true)), Singleton(Bool(true))) {
		t.Error("true = true failed")
	}
	if _, err := CompareGeneral(CmpEq, Singleton(Bool(true)), Singleton(Int(1))); err == nil {
		t.Error("boolean vs number comparison did not error")
	}
}

func TestCompareNodesAtomize(t *testing.T) {
	s := storage.MustLoad(`<a><p>65.95</p><p>39.95</p></a>`)
	ps := s.ElementRefs("p")
	seq := Sequence{Node{s, ps[0]}, Node{s, ps[1]}}
	got, err := CompareGeneral(CmpLt, seq, Singleton(Int(50)))
	if err != nil || !got {
		t.Fatalf("prices < 50 = %v, %v", got, err)
	}
	got, err = CompareGeneral(CmpGt, seq, Singleton(Int(100)))
	if err != nil || got {
		t.Fatalf("prices > 100 = %v, %v", got, err)
	}
}

func TestArith(t *testing.T) {
	res, err := Arith(OpAdd, Singleton(Int(2)), Singleton(Int(3)))
	if err != nil || len(res) != 1 || res[0] != Int(5) {
		t.Fatalf("2+3 = %v, %v", res, err)
	}
	res, _ = Arith(OpDiv, Singleton(Int(7)), Singleton(Int(2)))
	if res[0] != Dbl(3.5) {
		t.Fatalf("7 div 2 = %v", res)
	}
	res, _ = Arith(OpDiv, Singleton(Int(6)), Singleton(Int(2)))
	if res[0] != Int(3) {
		t.Fatalf("6 div 2 = %v", res)
	}
	res, _ = Arith(OpIDiv, Singleton(Int(7)), Singleton(Int(2)))
	if res[0] != Int(3) {
		t.Fatalf("7 idiv 2 = %v", res)
	}
	res, _ = Arith(OpMod, Singleton(Int(7)), Singleton(Int(2)))
	if res[0] != Int(1) {
		t.Fatalf("7 mod 2 = %v", res)
	}
	res, _ = Arith(OpMul, Singleton(Dbl(1.5)), Singleton(Int(2)))
	if res[0] != Dbl(3) {
		t.Fatalf("1.5*2 = %v", res)
	}
	// Empty propagation.
	res, err = Arith(OpAdd, nil, Singleton(Int(1)))
	if err != nil || len(res) != 0 {
		t.Fatalf("() + 1 = %v, %v", res, err)
	}
	// Errors.
	if _, err := Arith(OpIDiv, Singleton(Int(1)), Singleton(Int(0))); err == nil {
		t.Error("idiv by zero did not error")
	}
	if _, err := Arith(OpAdd, Sequence{Int(1), Int(2)}, Singleton(Int(1))); err == nil {
		t.Error("arith on pair did not error")
	}
	// String coerces to NaN.
	res, err = Arith(OpAdd, Singleton(Str("x")), Singleton(Int(1)))
	if err != nil || !math.IsNaN(float64(res[0].(Dbl))) {
		t.Fatalf(`"x"+1 = %v, %v`, res, err)
	}
}

// TestArithOverflow: integer results outside int64 raise ErrOverflow
// (FOAR0002); the one integer div whose quotient does not fit returns
// the double quotient instead of wrapping.
func TestArithOverflow(t *testing.T) {
	minInt := Singleton(Int(math.MinInt64))
	for _, c := range []struct {
		op   ArithOp
		x, y Sequence
	}{
		{OpAdd, Singleton(Int(math.MaxInt64)), Singleton(Int(1))},
		{OpSub, minInt, Singleton(Int(1))},
		{OpMul, Singleton(Int(math.MaxInt64)), Singleton(Int(2))},
		{OpMul, Singleton(Int(-1)), minInt},
		{OpMul, minInt, Singleton(Int(-1))},
		{OpIDiv, minInt, Singleton(Int(-1))},
		{OpIDiv, Singleton(Dbl(1e300)), Singleton(Int(1))},
		{OpIDiv, Singleton(Dbl(math.NaN())), Singleton(Int(1))},
	} {
		if _, err := Arith(c.op, c.x, c.y); !errors.Is(err, ErrOverflow) {
			t.Errorf("%v op %d %v: err = %v, want ErrOverflow", c.x, c.op, c.y, err)
		}
	}
	res, err := Arith(OpDiv, minInt, Singleton(Int(-1)))
	if err != nil || res[0] != Dbl(9223372036854775808) {
		t.Fatalf("MinInt64 div -1 = %v, %v", res, err)
	}
	res, err = Arith(OpMod, minInt, Singleton(Int(-1)))
	if err != nil || res[0] != Int(0) {
		t.Fatalf("MinInt64 mod -1 = %v, %v", res, err)
	}
}

func TestDocOrderAndUnion(t *testing.T) {
	s := storage.MustLoad(`<a><b/><c/><d/></a>`)
	b := Node{s, s.ElementRefs("b")[0]}
	c := Node{s, s.ElementRefs("c")[0]}
	d := Node{s, s.ElementRefs("d")[0]}
	got, err := DocOrder(Sequence{d, b, c, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !SameNode(got[0].(Node), b) || !SameNode(got[2].(Node), d) {
		t.Fatalf("DocOrder = %v", got)
	}
	u, err := Union(Sequence{d, b}, Sequence{c, d})
	if err != nil || len(u) != 3 {
		t.Fatalf("Union = %v, %v", u, err)
	}
	if !IsDocOrdered(u) {
		t.Error("union not in document order")
	}
	if _, err := DocOrder(Singleton(Int(1))); err == nil {
		t.Error("DocOrder over atomic did not error")
	}
}

func TestDocOrderAcrossStores(t *testing.T) {
	s1 := storage.MustLoad(`<a><b/></a>`)
	s2 := storage.MustLoad(`<a><b/></a>`)
	n1 := Node{s1, s1.DocumentElement()}
	n2 := Node{s2, s2.DocumentElement()}
	got, err := DocOrder(Sequence{n2, n1})
	if err != nil {
		t.Fatal(err)
	}
	if !SameNode(got[0].(Node), n1) {
		t.Fatal("earlier store should order first")
	}
}

func TestDeepEqual(t *testing.T) {
	s := storage.MustLoad(`<a><b/></a>`)
	n := Node{s, s.DocumentElement()}
	if !DeepEqual(Sequence{Int(1), n}, Sequence{Int(1), n}) {
		t.Error("equal sequences not DeepEqual")
	}
	if DeepEqual(Sequence{Int(1)}, Sequence{Int(2)}) {
		t.Error("unequal atomics DeepEqual")
	}
	if DeepEqual(Sequence{Int(1)}, Sequence{Int(1), Int(1)}) {
		t.Error("different lengths DeepEqual")
	}
	if DeepEqual(Sequence{n}, Sequence{Int(1)}) {
		t.Error("node vs atomic DeepEqual")
	}
}

func TestNumberOf(t *testing.T) {
	if NumberOf(Str(" 42 ")) != 42 {
		t.Error("string with spaces did not parse")
	}
	if !math.IsNaN(NumberOf(Str("x"))) {
		t.Error("junk string should be NaN")
	}
	if NumberOf(Bool(true)) != 1 || NumberOf(Bool(false)) != 0 {
		t.Error("bool conversion wrong")
	}
}

// Property: DocOrder is idempotent and output is sorted.
func TestDocOrderProperty(t *testing.T) {
	s := storage.MustLoad(`<a><b/><b/><b/><b/><b/><b/></a>`)
	refs := s.ElementRefs("b")
	f := func(idx []uint8) bool {
		var seq Sequence
		for _, i := range idx {
			seq = append(seq, Node{s, refs[int(i)%len(refs)]})
		}
		once, err := DocOrder(seq)
		if err != nil {
			return false
		}
		twice, err := DocOrder(once)
		if err != nil {
			return false
		}
		return IsDocOrdered(once) && DeepEqual(once, twice)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: comparison trichotomy for numeric items.
func TestCompareTrichotomyProperty(t *testing.T) {
	f := func(a, b int32) bool {
		l, r := Singleton(Int(a)), Singleton(Int(b))
		eq, _ := CompareGeneral(CmpEq, l, r)
		lt, _ := CompareGeneral(CmpLt, l, r)
		gt, _ := CompareGeneral(CmpGt, l, r)
		if b2i(eq)+b2i(lt)+b2i(gt) != 1 {
			return false
		}
		le, _ := CompareGeneral(CmpLe, l, r)
		ge, _ := CompareGeneral(CmpGe, l, r)
		return le == (lt || eq) && ge == (gt || eq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNestedList(t *testing.T) {
	// Forest: (1 (2 3)) (4)
	root1 := NewLeaf(Int(1))
	two := root1.Append(NewLeaf(Int(2)))
	two.Append(NewLeaf(Int(3)))
	root2 := NewLeaf(Int(4))
	l := NestedList{Roots: []*Nested{root1, root2}}
	if l.Size() != 4 {
		t.Fatalf("Size = %d", l.Size())
	}
	if l.Depth() != 3 {
		t.Fatalf("Depth = %d", l.Depth())
	}
	flat := l.Flatten()
	if flat.String() != "1 2 3 4" {
		t.Fatalf("Flatten = %q", flat.String())
	}
	if got := l.String(); got != "(1 (2 (3))) (4)" {
		t.Fatalf("String = %q", got)
	}
}

func TestNestedListEmpty(t *testing.T) {
	var l NestedList
	if l.Size() != 0 || l.Depth() != 0 || len(l.Flatten()) != 0 || l.String() != "" {
		t.Fatal("empty NestedList misbehaves")
	}
}

func TestNestedGroupingNode(t *testing.T) {
	g := &Nested{} // unlabeled grouping
	g.Append(NewLeaf(Str("x")))
	l := NestedList{Roots: []*Nested{g}}
	if l.Size() != 1 {
		t.Fatalf("Size = %d", l.Size())
	}
	if l.String() != "(. (x))" {
		t.Fatalf("String = %q", l.String())
	}
}

func TestIntersectExceptValues(t *testing.T) {
	s := storage.MustLoad(`<a><b/><c/><d/></a>`)
	b := Node{s, s.ElementRefs("b")[0]}
	c := Node{s, s.ElementRefs("c")[0]}
	d := Node{s, s.ElementRefs("d")[0]}
	got, err := Intersect(Sequence{b, c, d}, Sequence{c, d})
	if err != nil || len(got) != 2 || !SameNode(got[0].(Node), c) {
		t.Fatalf("Intersect = %v (%v)", got, err)
	}
	got, err = Except(Sequence{b, c, d}, Sequence{c})
	if err != nil || len(got) != 2 || !SameNode(got[1].(Node), d) {
		t.Fatalf("Except = %v (%v)", got, err)
	}
	// Duplicates collapse.
	got, _ = Intersect(Sequence{b, b}, Sequence{b, b, b})
	if len(got) != 1 {
		t.Fatalf("dup intersect = %v", got)
	}
	// Empty operands.
	if got, err := Intersect(nil, Sequence{b}); err != nil || len(got) != 0 {
		t.Fatalf("empty intersect = %v (%v)", got, err)
	}
	if got, err := Except(Sequence{b}, nil); err != nil || len(got) != 1 {
		t.Fatalf("except nothing = %v (%v)", got, err)
	}
	// Atomics error.
	if _, err := Intersect(Sequence{Int(1)}, Sequence{Int(1)}); err == nil {
		t.Fatal("intersect over atomics did not error")
	}
}

// Property: for node sets A, B: |A∩B| + |A∖B| == |A| (after dedup).
func TestSetAlgebraProperty(t *testing.T) {
	s := storage.MustLoad(`<a><b/><b/><b/><b/><b/><b/></a>`)
	refs := s.ElementRefs("b")
	f := func(ai, bi []uint8) bool {
		var A, B Sequence
		for _, i := range ai {
			A = append(A, Node{s, refs[int(i)%len(refs)]})
		}
		for _, i := range bi {
			B = append(B, Node{s, refs[int(i)%len(refs)]})
		}
		inter, err1 := Intersect(A, B)
		diff, err2 := Except(A, B)
		dedupA, err3 := DocOrder(A)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		if len(inter)+len(diff) != len(dedupA) {
			return false
		}
		u, err := Union(inter, diff)
		return err == nil && DeepEqual(u, dedupA)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
