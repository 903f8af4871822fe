package analyze

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// Package loading: parse a package's files from source and type-check
// them against gc export data. The unitchecker finds that data through
// its vet config; the analyzetest harness asks `go list -export`.
// Everything runs offline out of the build cache.

// CheckFiles parses the named files (relative names resolved against
// dir) and type-checks them as one package with the given import path.
func CheckFiles(fset *token.FileSet, imp types.Importer, path, dir string, names []string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		if !filepath.IsAbs(name) && dir != "" {
			name = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analyze: %w", err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analyze: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// NewExportImporter returns a types.Importer that reads gc export data,
// locating each import's export file through find. The heavy lifting —
// parsing the unified export format — is the standard library's
// gc importer; this only supplies the lookup.
func NewExportImporter(fset *token.FileSet, find func(path string) (string, error)) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, err := find(path)
		if err != nil {
			return nil, err
		}
		return os.Open(file)
	})
}

// moduleExports caches, per process, the export file `go list -export`
// named for each import path. It backs ModuleImporter and so the
// analyzetest harness, where fixture files import real module packages
// (softcache/internal/trace and friends) without a surrounding go list
// universe.
var moduleExports sync.Map // import path -> export file

// ModuleImporter returns an importer that resolves any import path —
// standard library or module-local — via `go list -export` run in dir.
func ModuleImporter(fset *token.FileSet, dir string) types.Importer {
	return NewExportImporter(fset, func(path string) (string, error) {
		if f, ok := moduleExports.Load(path); ok {
			return f.(string), nil
		}
		cmd := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path)
		cmd.Dir = dir
		var out, errb bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &errb
		if err := cmd.Run(); err != nil {
			return "", fmt.Errorf("go list -export %s: %v: %s", path, err, strings.TrimSpace(errb.String()))
		}
		file := strings.TrimSpace(out.String())
		if file == "" {
			return "", fmt.Errorf("go list -export %s: no export data", path)
		}
		moduleExports.Store(path, file)
		return file, nil
	})
}
