package analyze

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
)

// The `go vet -vettool` protocol, reverse of cmd/go's side:
//
//  1. `tool -V=full` must print a version line cmd/go can hash for the
//     build cache ("name version devel comments-go-here buildID=<hex>").
//  2. `tool -flags` must print a JSON description of the tool's flags
//     so cmd/go can validate what the user passed.
//  3. Per package, cmd/go invokes `tool [flags] <file>.cfg` where the
//     cfg (vetConfig) names the Go files, the import remapping and the
//     export-data file of every dependency. The tool must write the
//     VetxOutput file (facts for importers — always empty here, the
//     shipped analyzers are fact-free) and report diagnostics on
//     stderr (or stdout as JSON under -json), exiting nonzero when it
//     found anything.
//
// Dependency packages arrive with VetxOnly set: cmd/go only wants
// their facts. Having none, the tool writes the empty vetx and returns
// immediately, which keeps `go vet -vettool` over ./... fast — only
// the packages of this module are ever type-checked.

// vetConfig mirrors the JSON cmd/go writes for each unit of work.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// PrintVersion emits the -V=full line. The buildID is a hash of the
// executable so cmd/go's vet result cache invalidates when the tool
// changes.
func PrintVersion(w io.Writer, progname string) {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Fprintf(w, "%s version devel comments-go-here buildID=%02x\n", progname, h.Sum(nil))
}

// PrintFlags emits the -flags JSON: the flags cmd/go is allowed to
// forward. Every analyzer always runs, so none has a flag.
func PrintFlags(w io.Writer) {
	type flagDesc struct {
		Name  string `json:"Name"`
		Bool  bool   `json:"Bool"`
		Usage string `json:"Usage"`
	}
	flags := []flagDesc{
		{Name: "json", Bool: true, Usage: "emit JSON diagnostics"},
		{Name: "c", Bool: false, Usage: "display offending line with this many lines of context (ignored)"},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	enc.Encode(flags)
}

// Unitchecker processes one cfg file and returns the diagnostics (nil
// for fact-only units) along with the unit's package ID for -json
// aggregation. Operational failures return an error.
func Unitchecker(cfgFile string, analyzers []*Analyzer) ([]Diagnostic, *token.FileSet, string, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, nil, "", err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, nil, "", fmt.Errorf("parsing %s: %w", cfgFile, err)
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return nil, nil, cfg.ID, err
		}
	}
	if cfg.VetxOnly {
		return nil, nil, cfg.ID, nil
	}

	fset := token.NewFileSet()
	imp := NewExportImporter(fset, func(path string) (string, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		if f, ok := cfg.PackageFile[path]; ok {
			return f, nil
		}
		return "", fmt.Errorf("no export data for %q in vet config %s", path, cfg.ID)
	})
	pkg, err := CheckFiles(fset, imp, cfg.ImportPath, cfg.Dir, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, fset, cfg.ID, nil
		}
		return nil, nil, cfg.ID, err
	}
	diags, err := RunAnalyzers(pkg, analyzers)
	return diags, fset, cfg.ID, err
}

// WriteDiagnosticsText renders findings the way vet tools
// conventionally do on stderr: file:line:col: message [analyzer].
func WriteDiagnosticsText(w io.Writer, fset *token.FileSet, diags []Diagnostic) {
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		fmt.Fprintf(w, "%s: %s [%s]\n", relPosition(pos), d.Message, d.Analyzer)
	}
}

// relPosition renders a position with the file path relativised to the
// working directory when possible — stable output for tests and CI
// regardless of checkout location.
func relPosition(pos token.Position) string {
	name := pos.Filename
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, name); err == nil && !filepath.IsAbs(rel) && rel != "" && !hasDotDotPrefix(rel) {
			name = rel
		}
	}
	return fmt.Sprintf("%s:%d:%d", name, pos.Line, pos.Column)
}

func hasDotDotPrefix(p string) bool {
	return p == ".." || len(p) >= 3 && p[:3] == ".."+string(filepath.Separator)
}

// WriteVetJSON renders findings in the aggregate shape `go vet -json`
// expects from a vettool: {pkgid: {analyzer: [{posn, message}]}}.
func WriteVetJSON(w io.Writer, fset *token.FileSet, pkgID string, diags []Diagnostic) error {
	type vetDiag struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	byAnalyzer := make(map[string][]vetDiag)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], vetDiag{
			Posn:    fmt.Sprintf("%s:%d:%d", pos.Filename, pos.Line, pos.Column),
			Message: d.Message,
		})
	}
	// encoding/json emits map keys sorted, so the output is stable.
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(map[string]map[string][]vetDiag{pkgID: byAnalyzer})
}
