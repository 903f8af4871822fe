package loopir

import (
	"strings"
	"testing"
)

func TestSubscriptAlgebra(t *testing.T) {
	s := Sum(V("i"), SV(3, "j")) // i + 3j
	s = Plus(s, 5)
	if s.Coef("i") != 1 || s.Coef("j") != 3 || s.Const != 5 {
		t.Fatalf("subscript = %+v", s)
	}
	if s.Coef("k") != 0 {
		t.Fatal("absent variable must have coefficient 0")
	}
	if !s.Uses("i") || s.Uses("k") {
		t.Fatal("Uses broken")
	}
	// Term cancellation.
	z := Sum(V("i"), SV(-1, "i"))
	if z.Coef("i") != 0 || len(z.normTerms()) != 0 {
		t.Fatalf("cancellation broken: %+v", z)
	}
}

func TestSumRejectsDoubleIndirect(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sum of two indirect subscripts should panic")
		}
	}()
	Sum(Load("A", V("i")), Load("B", V("j")))
}

func TestIndirectUses(t *testing.T) {
	s := Load("Idx", V("j"))
	if !s.Uses("j") || !s.HasIndirect() {
		t.Fatal("indirect Uses broken")
	}
	if s.Coef("j") != 0 {
		t.Fatal("indirect component must not contribute affine coefficients")
	}
}

func TestSubscriptString(t *testing.T) {
	s := Plus(Sum(V("i"), SV(-1, "k")), 2)
	str := s.String()
	for _, want := range []string{"i", "-k", "2"} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() = %q missing %q", str, want)
		}
	}
	if C(0).String() != "0" {
		t.Fatalf("C(0).String() = %q", C(0).String())
	}
}

func simpleProgram() *Program {
	p := NewProgram("t")
	p.DeclareArray("A", 10, 10)
	p.DeclareArray("X", 10)
	p.Add(
		Do("i", C(0), C(9),
			Do("j", C(0), C(9),
				Read("A", V("j"), V("i")),
				Read("X", V("j")),
			),
			Store("X", V("i")),
		),
	)
	return p
}

func TestFinalizeAssignsIDsAndBases(t *testing.T) {
	p := simpleProgram()
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	accs := p.Accesses()
	if len(accs) != 3 {
		t.Fatalf("accesses = %d", len(accs))
	}
	for i, a := range accs {
		if a.ID != i+1 {
			t.Fatalf("access %d has ID %d", i, a.ID)
		}
	}
	// Arrays must not overlap and must be deterministic.
	a, x := p.Arrays["A"], p.Arrays["X"]
	if a.Base == 0 || x.Base == 0 {
		t.Fatal("bases unassigned")
	}
	aEnd := a.Base + uint64(a.Size()*a.ElemSize)
	if x.Base < aEnd && a.Base < x.Base+uint64(x.Size()*x.ElemSize) {
		t.Fatal("arrays overlap")
	}
	p2 := simpleProgram()
	if err := p2.Finalize(); err != nil {
		t.Fatal(err)
	}
	if p2.Arrays["A"].Base != a.Base || p2.Arrays["X"].Base != x.Base {
		t.Fatal("layout must be deterministic")
	}
	// Finalize is idempotent.
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
}

func TestValidationErrors(t *testing.T) {
	build := func(f func(*Program)) error {
		p := NewProgram("bad")
		p.DeclareArray("A", 4)
		f(p)
		return p.Finalize()
	}
	cases := []struct {
		name string
		f    func(*Program)
	}{
		{"undeclared array", func(p *Program) { p.Add(Read("B", C(0))) }},
		{"dim mismatch", func(p *Program) { p.Add(Read("A", C(0), C(0))) }},
		{"out-of-scope var", func(p *Program) { p.Add(Read("A", V("i"))) }},
		{"shadowed loop var", func(p *Program) {
			p.Add(Do("i", C(0), C(1), Do("i", C(0), C(1), Read("A", V("i")))))
		}},
		{"empty loop var", func(p *Program) { p.Add(Do("", C(0), C(1))) }},
		{"negative step", func(p *Program) { p.Add(DoStep("i", C(0), C(1), -1)) }},
		{"bad bound var", func(p *Program) { p.Add(Do("i", V("zzz"), C(1))) }},
		{"undeclared data array", func(p *Program) { p.Add(Do("i", C(0), C(1), Read("A", Load("D", V("i"))))) }},
		{"nested indirection", func(p *Program) {
			p.DeclareData("D", []int{0, 1})
			p.Add(Do("i", C(0), C(1), Read("A", Load("D", Load("D", V("i"))))))
		}},
		{"zero dimension", func(p *Program) { p.DeclareArray("Z", 0) }},
	}
	for _, tc := range cases {
		if err := build(tc.f); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}

func TestStrides(t *testing.T) {
	a := &Array{Name: "A", Dims: []int{3, 4, 5}, ElemSize: 8}
	s := a.Strides()
	if s[0] != 1 || s[1] != 3 || s[2] != 12 {
		t.Fatalf("strides = %v", s)
	}
	if a.Size() != 60 {
		t.Fatalf("size = %d", a.Size())
	}
}

func TestLinearSubscript(t *testing.T) {
	p := NewProgram("lin")
	p.DeclareArray("A", 10, 20)
	acc := Read("A", V("i"), Plus(V("j"), 2)) // A(i, j+2) -> i + 10j + 20
	p.Add(Do("i", C(0), C(9), Do("j", C(0), C(9), acc)))
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	lin, err := p.LinearSubscript(acc)
	if err != nil {
		t.Fatal(err)
	}
	if lin.Coef("i") != 1 || lin.Coef("j") != 10 || lin.Const != 20 {
		t.Fatalf("linearised = %+v", lin)
	}
}

func TestLinearSubscriptDoubleIndirect(t *testing.T) {
	p := NewProgram("lin2")
	p.DeclareArray("A", 10, 10)
	p.DeclareData("D", []int{0, 1})
	acc := Read("A", Load("D", V("i")), Load("D", V("i")))
	p.Add(Do("i", C(0), C(1), acc))
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.LinearSubscript(acc); err == nil {
		t.Fatal("two indirect dimensions should be rejected")
	}
}

func TestPrinter(t *testing.T) {
	p := simpleProgram()
	p.Add(&Call{Name: "foo"})
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	out := p.String()
	for _, want := range []string{"PROGRAM t", "DO i = 0, 9", "load  A(j,i)", "store X(i)", "CALL foo", "ENDDO"} {
		if !strings.Contains(out, want) {
			t.Fatalf("printer output missing %q:\n%s", want, out)
		}
	}
	tagged := p.StringTagged(map[int]Tags{1: {Temporal: true}})
	if !strings.Contains(tagged, "temporal=1 spatial=0") {
		t.Fatalf("tagged printer missing tags:\n%s", tagged)
	}
}

func TestWithTagsAndDriver(t *testing.T) {
	a := Read("A", C(0)).WithTags(true, false)
	if a.Force == nil || !a.Force.Temporal || a.Force.Spatial {
		t.Fatalf("WithTags = %+v", a.Force)
	}
	d := Driver("t", C(0), C(3))
	if !d.Opaque || d.Step != 1 {
		t.Fatalf("Driver = %+v", d)
	}
}

func TestDeclareIndexArray(t *testing.T) {
	p := NewProgram("idx")
	p.DeclareIndexArray("I", []int{3, 1, 2})
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	arr := p.Arrays["I"]
	if arr.ElemSize != 4 || arr.Dims[0] != 3 {
		t.Fatalf("index array = %+v", arr)
	}
	if len(p.Data["I"]) != 3 {
		t.Fatal("data not registered")
	}
}
