// Package analyzetest runs an analyzer over fixture packages and
// checks its findings against `// want` expectations, the same testdata
// convention golang.org/x/tools/go/analysis/analysistest uses:
//
//	x := retained() // want `escapes the pool`
//
// Every expectation is a regular expression that must match exactly one
// finding reported on its line, and every finding must be claimed by an
// expectation — extra findings and unmatched expectations both fail the
// test. Fixture files live under the analyzer package's testdata/
// directory (invisible to go build) but may import real module packages
// (softcache/internal/trace and friends): imports are resolved through
// the build cache via `go list -export`, so the fixtures type-check
// against the actual code whose invariants the analyzer encodes.
package analyzetest

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"softcache/internal/analyze"
)

// wantRe extracts expectations: one or more backquoted or quoted
// regexps after "// want".
var wantRe = regexp.MustCompile("// want (.*)$")

// expRe splits an expectation list into its quoted members.
var expRe = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// Config adjusts how a fixture package is loaded.
type Config struct {
	// Path is the import path the fixture is type-checked under.
	// Analyzers that branch on package path (cliexit) get the story the
	// fixture wants to tell, e.g. "softcache/cmd/fake". Defaults to
	// "softcache/fixture/<dir base name>".
	Path string
}

// Run applies the analyzer to the fixture package in dir (relative to
// the caller's package directory, conventionally "testdata/<case>") and
// diffs findings against the `// want` expectations.
func Run(t *testing.T, a *analyze.Analyzer, dir string, cfg Config) {
	t.Helper()
	RunAnalyzers(t, []*analyze.Analyzer{a}, dir, cfg)
}

// RunAnalyzers is Run for a suite sharing one fixture (the shared
// driver behaviors — suppression, hygiene findings — are themselves
// tested this way, with the pseudo-analyzer "ignore" in play).
func RunAnalyzers(t *testing.T, analyzers []*analyze.Analyzer, dir string, cfg Config) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("analyzetest: %v", err)
	}
	var names []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".go") {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatalf("analyzetest: no fixture files in %s", dir)
	}
	if cfg.Path == "" {
		cfg.Path = "softcache/fixture/" + filepath.Base(dir)
	}

	fset := token.NewFileSet()
	pkg, err := analyze.CheckFiles(fset, analyze.ModuleImporter(fset, "."), cfg.Path, "", names)
	if err != nil {
		t.Fatalf("analyzetest: %v", err)
	}
	diags, err := analyze.RunAnalyzers(pkg, analyzers)
	if err != nil {
		t.Fatalf("analyzetest: %v", err)
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			k := key{file: name, line: i + 1}
			for _, exp := range expRe.FindAllStringSubmatch(m[1], -1) {
				pat := exp[1]
				if pat == "" {
					pat = exp[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, k.line, pat, err)
				}
				wants[k] = append(wants[k], re)
			}
			if len(wants[k]) == 0 {
				t.Fatalf("%s:%d: // want with no quoted or backquoted pattern", name, k.line)
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{file: pos.Filename, line: pos.Line}
		matched := -1
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s:%d: unexpected finding [%s]: %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected finding matching %q was not reported", k.file, k.line, re)
		}
	}
}
