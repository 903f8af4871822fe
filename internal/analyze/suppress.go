package analyze

import (
	"go/ast"
	"go/token"
	"strings"
)

// ignorePrefix introduces a suppression comment:
//
//	//softcache:ignore <analyzer>[,<analyzer>...] <reason>
//
// A directive on its own line suppresses matching findings on the next
// line; a trailing directive suppresses findings on its own line. The
// reason is mandatory, and a directive that suppresses nothing (for an
// analyzer that actually ran) is itself reported — dead suppressions
// are how real findings sneak back in.
const ignorePrefix = "softcache:ignore"

type ignoreDirective struct {
	pos       token.Pos
	file      string
	line      int // the source line the directive applies to
	analyzers []string
	reason    string
	used      bool
}

// parseIgnores collects every well-formed directive in the package and
// reports malformed ones (missing analyzer or missing reason) as
// findings under the pseudo-analyzer name "ignore".
func parseIgnores(pkg *Package) (directives []*ignoreDirective, malformed []Diagnostic) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+ignorePrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					malformed = append(malformed, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "ignore",
						Message:  "softcache:ignore needs an analyzer name and a reason",
					})
					continue
				}
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "ignore",
						Message:  "softcache:ignore " + fields[0] + " needs a written reason",
					})
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				line := pos.Line
				if standaloneComment(pkg.Fset, f, c.Pos()) {
					// Directive on its own line: it governs the next one.
					line++
				}
				directives = append(directives, &ignoreDirective{
					pos:       c.Pos(),
					file:      pos.Filename,
					line:      line,
					analyzers: strings.Split(fields[0], ","),
					reason:    strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return directives, malformed
}

// standaloneComment reports whether no code starts before pos on its
// source line — i.e. the comment is the first thing on the line.
func standaloneComment(fset *token.FileSet, f *ast.File, pos token.Pos) bool {
	p := fset.Position(pos)
	standalone := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !standalone {
			return false
		}
		np := fset.Position(n.Pos())
		if np.Line == p.Line && np.Column < p.Column {
			standalone = false
			return false
		}
		// Prune subtrees that end before the target line.
		return fset.Position(n.End()).Line >= p.Line
	})
	return standalone
}

// applyIgnores filters diags through the package's directives and
// appends the hygiene findings: malformed directives and directives
// that matched nothing.
func applyIgnores(pkg *Package, analyzers []*Analyzer, diags []Diagnostic) []Diagnostic {
	directives, malformed := parseIgnores(pkg)
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}

	kept := diags[:0]
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		suppressed := false
		for _, dir := range directives {
			if dir.file != pos.Filename || dir.line != pos.Line {
				continue
			}
			for _, name := range dir.analyzers {
				if name == d.Analyzer {
					dir.used = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}

	kept = append(kept, malformed...)
	for _, dir := range directives {
		if dir.used {
			continue
		}
		relevant := false
		for _, name := range dir.analyzers {
			if ran[name] {
				relevant = true
			}
		}
		if relevant {
			kept = append(kept, Diagnostic{
				Pos:      dir.pos,
				Analyzer: "ignore",
				Message:  "softcache:ignore " + strings.Join(dir.analyzers, ",") + " suppresses nothing; delete it",
			})
		}
	}
	return kept
}
