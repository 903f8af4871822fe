package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"softcache/internal/cli"
)

func TestVersionProbe(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-V=full"}, &out, &errb); code != cli.ExitOK {
		t.Fatalf("-V=full exit %d, stderr %s", code, errb.String())
	}
	if !strings.HasPrefix(out.String(), "softcache-analyze version ") {
		t.Fatalf("version line %q", out.String())
	}
}

func TestFlagsProbe(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-flags"}, &out, &errb); code != cli.ExitOK {
		t.Fatalf("-flags exit %d", code)
	}
	var flags []struct{ Name string }
	if err := json.Unmarshal(out.Bytes(), &flags); err != nil {
		t.Fatalf("-flags is not JSON: %v\n%s", err, out.String())
	}
	names := make(map[string]bool)
	for _, f := range flags {
		names[f.Name] = true
	}
	for _, want := range []string{"poolescape", "lockguard", "cliexit"} {
		if !names[want] {
			t.Errorf("-flags missing analyzer %q", want)
		}
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-nosuchflag"}, &out, &errb); code != cli.ExitUsage {
		t.Fatalf("bad flag: exit %d, want %d", code, cli.ExitUsage)
	}
}

func TestOperationalErrorsExitTwo(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"./does/not/exist/..."}, &out, &errb)
	if code != cli.ExitOperational {
		t.Fatalf("broken load: exit %d, want %d; stderr %s", code, cli.ExitOperational, errb.String())
	}
	if !strings.Contains(errb.String(), "softcache-analyze:") {
		t.Fatalf("operational error not prefixed: %q", errb.String())
	}
	var cfgOut, cfgErr bytes.Buffer
	if code := run([]string{"missing.cfg"}, &cfgOut, &cfgErr); code != cli.ExitOperational {
		t.Fatalf("missing cfg: exit %d, want %d", code, cli.ExitOperational)
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"softcache/internal/cli"}, &out, &errb); code != cli.ExitOK {
		t.Fatalf("clean package: exit %d\nstdout %s\nstderr %s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean package produced output: %s", out.String())
	}
}

// TestFindingsExitOne runs the suite standalone over a dirty fixture
// package staged in a throwaway module-relative directory.
func TestFindingsExitOne(t *testing.T) {
	dir := stageDirtyPackage(t)
	var out, errb bytes.Buffer
	code := run([]string{"./" + filepath.ToSlash(dir) + "/..."}, &out, &errb)
	if code != cli.ExitFailure {
		t.Fatalf("dirty package: exit %d, want %d\nstdout %s\nstderr %s", code, cli.ExitFailure, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "[cliexit]") {
		t.Fatalf("finding not rendered with analyzer tag: %s", out.String())
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"-json", "./" + filepath.ToSlash(dir) + "/..."}, &out, &errb)
	if code != cli.ExitFailure {
		t.Fatalf("dirty package -json: exit %d, want %d", code, cli.ExitFailure)
	}
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		var d struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("-json line %q: %v", line, err)
		}
		if d.Analyzer != "cliexit" || d.Line == 0 {
			t.Fatalf("unexpected JSON diagnostic %+v", d)
		}
	}
}

// TestAnalyzerSelection: with -poolescape only, the cliexit finding in
// the dirty package is not reported.
func TestAnalyzerSelection(t *testing.T) {
	dir := stageDirtyPackage(t)
	var out, errb bytes.Buffer
	code := run([]string{"-poolescape", "./" + filepath.ToSlash(dir) + "/..."}, &out, &errb)
	if code != cli.ExitOK {
		t.Fatalf("-poolescape over cliexit-dirty package: exit %d\nstdout %s\nstderr %s", code, out.String(), errb.String())
	}
}

// stageDirtyPackage writes a package with one cliexit violation inside
// the module (so go list can see it) and removes it afterwards, together
// with testdata when nothing else is left in it, so the checkout ends as
// it began.
func stageDirtyPackage(t *testing.T) string {
	t.Helper()
	dir := filepath.Join("testdata", "staged_"+strings.ReplaceAll(t.Name(), "/", "_"))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		os.RemoveAll(dir)
		os.Remove("testdata") // fails, leaving it, unless it is empty
	})
	src := `package dirty

import "os"

func bail() {
	os.Exit(1)
}
`
	if err := os.WriteFile(filepath.Join(dir, "dirty.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestGoVetVettool drives the real protocol end to end: build the
// binary, hand it to go vet, and check both the clean and the dirty
// path.
func TestGoVetVettool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs go vet")
	}
	bin := filepath.Join(t.TempDir(), "softcache-analyze")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building vettool: %v\n%s", err, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+bin, "softcache/internal/cli")
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool over clean package: %v\n%s", err, out)
	}

	dir := stageDirtyPackage(t)
	vet = exec.Command("go", "vet", "-vettool="+bin, "./"+filepath.ToSlash(dir)+"/...")
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool over dirty package succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "terminates the process from a library package") {
		t.Fatalf("vet output missing the cliexit finding:\n%s", out)
	}
}
