package analyze

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strconv"
	"strings"
	"testing"
)

// stub reports every increment statement — a minimal analyzer for
// exercising the driver and suppression machinery.
var stub = &Analyzer{
	Name: "stub",
	Doc:  "flags every ++",
	Run: func(pass *Pass) error {
		pass.Inspect(func(n ast.Node) bool {
			if inc, ok := n.(*ast.IncDecStmt); ok && inc.Tok == token.INC {
				pass.Reportf(inc.Pos(), "increment")
			}
			return true
		})
		return nil
	},
}

// checkSource type-checks in-memory files (name -> source) as one
// package. Sources must be import-free.
func checkSource(t *testing.T, files map[string]string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	var asts []*ast.File
	for name, src := range files {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		asts = append(asts, f)
	}
	info := newInfo()
	tpkg, err := (&types.Config{}).Check("softcache/fixture/inline", fset, asts, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Path: "softcache/fixture/inline", Fset: fset, Files: asts, Types: tpkg, Info: info}
}

func messages(diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.Analyzer+": "+d.Message)
	}
	return out
}

func TestSuppression(t *testing.T) {
	pkg := checkSource(t, map[string]string{"fx.go": `package fx

func f() {
	x := 0
	x++ //softcache:ignore stub incrementing is the point
	//softcache:ignore stub the next line is covered
	x++
	x++
	x++ //softcache:ignore stub,other a comma list counts for each name
	_ = x
}
`})
	diags, err := RunAnalyzers(pkg, []*Analyzer{stub})
	if err != nil {
		t.Fatal(err)
	}
	got := messages(diags)
	if len(got) != 1 || got[0] != "stub: increment" {
		t.Fatalf("want exactly the one unsuppressed increment, got %v", got)
	}
	pos := pkg.Fset.Position(diags[0].Pos)
	if pos.Line != 8 {
		t.Fatalf("surviving finding on line %d, want 8", pos.Line)
	}
}

func TestSuppressionHygiene(t *testing.T) {
	pkg := checkSource(t, map[string]string{"fx.go": `package fx

//softcache:ignore
//softcache:ignore stub
//softcache:ignore stub this one suppresses nothing
//softcache:ignore otherling unknown analyzers are someone else's directive
func f() {}
`})
	diags, err := RunAnalyzers(pkg, []*Analyzer{stub})
	if err != nil {
		t.Fatal(err)
	}
	got := messages(diags)
	want := map[string]bool{
		"ignore: softcache:ignore needs an analyzer name and a reason": false,
		"ignore: softcache:ignore stub needs a written reason":         false,
		"ignore: softcache:ignore stub suppresses nothing; delete it":  false,
	}
	for _, g := range got {
		if _, ok := want[g]; !ok {
			t.Errorf("unexpected finding %q", g)
			continue
		}
		want[g] = true
	}
	for w, seen := range want {
		if !seen {
			t.Errorf("missing finding %q", w)
		}
	}
}

// TestTestFileFindingsReported: findings and suppressions in _test.go
// files count like any other.
func TestTestFileFindingsReported(t *testing.T) {
	pkg := checkSource(t, map[string]string{
		"fx.go":      "package fx\n\nfunc f() {\n\tx := 0\n\tx++\n\t_ = x\n}\n",
		"fx_test.go": "package fx\n\nfunc g() {\n\ty := 0\n\ty++\n\ty++ //softcache:ignore stub suppressed in a test file\n\t_ = y\n}\n",
	})
	diags, err := RunAnalyzers(pkg, []*Analyzer{stub})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		p := pkg.Fset.Position(d.Pos)
		got = append(got, p.Filename+":"+strconv.Itoa(p.Line)+" "+d.Analyzer)
	}
	want := []string{"fx.go:5 stub", "fx_test.go:5 stub"}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Fatalf("findings %v, want %v", got, want)
	}
}

func TestDiagnosticOrder(t *testing.T) {
	files := map[string]string{
		"b.go": "package fx\n\nfunc b() {\n\tn := 0\n\tn++\n\tn++\n\t_ = n\n}\n",
		"a.go": "package fx\n\nfunc a() {\n\tm := 0\n\tm++\n\t_ = m\n}\n",
	}
	pkg := checkSource(t, files)
	diags, err := RunAnalyzers(pkg, []*Analyzer{stub})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		p := pkg.Fset.Position(d.Pos)
		got = append(got, p.Filename+":"+strconv.Itoa(p.Line))
	}
	want := []string{"a.go:5", "b.go:5", "b.go:6"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("order %v, want %v", got, want)
	}
}
