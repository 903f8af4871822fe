// Package analyze is the static-analysis framework softcache points at
// its own source: a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic)
// plus the two drivers the analyzers run under: the `go vet -vettool`
// unitchecker protocol (unitchecker.go), which cmd/softcache-analyze
// speaks, and an analysistest-style fixture harness (package
// analyzetest). Both report findings in _test.go files too.
//
// The paper's thesis is that static analysis can substitute for
// hardware assistance; softcache-vet applies that to the workload
// programs, and this package applies it to the runtime that simulates
// them. The shipped analyzers (package internal/analyze/...) encode the
// invariants the pooling, locking and exit paths rely on:
//
//   - poolescape:  a trace.GetBatch buffer must not escape or be used
//     after its PutBatch (benchmark/layers.go is the last holder outside
//     trace.Each; the analyzer goes when the pool is unexported)
//   - lockguard:   fields annotated "// guarded by <mu>" are only
//     touched with that mutex held
//   - cliexit:     process exit flows through internal/cli, not bare
//     os.Exit/log.Fatal
//
// Two conventions that once had analyzers of their own now hold by
// construction: trace.Each is the one batch loop and polls its context,
// and internal/prom renders only registered, validated series.
//
// A finding can be suppressed at the offending line with
//
//	//softcache:ignore <analyzer>[,<analyzer>...] <reason>
//
// where the reason is mandatory; a reasonless or unused ignore is
// itself a finding, so suppressions cannot rot silently.
//
// The framework is intentionally a subset of x/tools: no Facts (every
// shipped analyzer is intra-package), no SuggestedFixes, no analyzer
// dependencies. Should the module ever grow a vendored x/tools, the
// analyzers port mechanically — the Run signature, Pass fields and
// testdata conventions match.
package analyze

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// comments. It must be a valid identifier.
	Name string
	// Doc is a one-line description shown in the command's usage.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through pass.Report/Reportf. A returned error is an operational
	// failure (the analysis could not run), not a finding.
	Run func(*Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Position resolves pos against the pass's file set.
func (p *Pass) Position(pos token.Pos) token.Position { return p.Fset.Position(pos) }

// Inspect walks every node of every file in the pass, calling fn the
// way ast.Inspect does (return false to prune the subtree).
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string // filled in by the driver
	Message  string
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// newInfo allocates the full set of type-checker result maps the
// analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// RunAnalyzers applies the analyzers to pkg and returns the surviving
// findings in position order: analyzer findings minus honored
// suppressions, plus the suppression-hygiene findings (reasonless or
// unused ignores). An analyzer returning an error aborts the run.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		pass.Report = func(d Diagnostic) {
			d.Analyzer = a.Name
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyze: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	diags = applyIgnores(pkg, analyzers, diags)
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
