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
	var names []string
	for _, f := range flags {
		names = append(names, f.Name)
	}
	if strings.Join(names, " ") != "json c" {
		t.Fatalf("-flags lists %v, want [json c]", names)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-nosuchflag"}, &out, &errb); code != cli.ExitUsage {
		t.Fatalf("bad flag: exit %d, want %d", code, cli.ExitUsage)
	}
	if !strings.HasPrefix(errb.String(), "softcache-analyze: flag provided but not defined") {
		t.Fatalf("bad flag: stderr not prefixed: %q", errb.String())
	}
}

// TestOperationalErrorsExitTwo: a work unit that cannot be read and a
// package pattern (the tool has no loader of its own) both exit 2, the
// latter pointing at go vet -vettool.
func TestOperationalErrorsExitTwo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"missing.cfg"}, &out, &errb); code != cli.ExitOperational {
		t.Fatalf("missing cfg: exit %d, want %d", code, cli.ExitOperational)
	}
	if !strings.Contains(errb.String(), "softcache-analyze:") {
		t.Fatalf("operational error not prefixed: %q", errb.String())
	}

	for _, args := range [][]string{{"./..."}, {"-json", "softcache/internal/cli"}, {}} {
		out.Reset()
		errb.Reset()
		if code := run(args, &out, &errb); code != cli.ExitUsage {
			t.Fatalf("%q: exit %d, want %d; stderr %s", args, code, cli.ExitUsage, errb.String())
		}
		if !strings.Contains(errb.String(), "go vet -vettool") {
			t.Fatalf("%q: message does not point to go vet -vettool: %q", args, errb.String())
		}
	}
}

// stageDirtyPackage writes a package with one cliexit violation in
// dirty.go and one in dirty_test.go inside the module (so go vet can
// see it) and removes it afterwards, together with testdata when
// nothing else is left in it, so the checkout ends as it began.
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
	testSrc := strings.Replace(src, "func bail()", "func bailInTest()", 1)
	if err := os.WriteFile(filepath.Join(dir, "dirty_test.go"), []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestGoVetVettool drives the real protocol end to end: build the
// binary, hand it to go vet, and check the clean path, the dirty path
// with its finding in a _test.go file, and the -json aggregate.
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

	pattern := "./" + filepath.ToSlash(stageDirtyPackage(t)) + "/..."
	vet = exec.Command("go", "vet", "-vettool="+bin, pattern)
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool over dirty package succeeded:\n%s", out)
	}
	for _, file := range []string{"dirty.go", "dirty_test.go"} {
		want := file + ":6:2: os.Exit terminates the process from a library package"
		if !strings.Contains(string(out), want) {
			t.Fatalf("vet output missing %q:\n%s", want, out)
		}
	}

	// Under -json cmd/go prints a "# <package>" line before each unit's
	// aggregate object and exits 0: findings are data, not failure.
	vet = exec.Command("go", "vet", "-json", "-vettool="+bin, pattern)
	out, err = vet.CombinedOutput()
	if err != nil {
		t.Fatalf("go vet -json -vettool: %v\n%s", err, out)
	}
	var objects strings.Builder
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if !strings.HasPrefix(line, "#") {
			objects.WriteString(line)
		}
	}
	var posns []string
	dec := json.NewDecoder(strings.NewReader(objects.String()))
	for dec.More() {
		var agg map[string]map[string][]struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		if err := dec.Decode(&agg); err != nil {
			t.Fatalf("go vet -json output: %v\n%s", err, out)
		}
		for _, byAnalyzer := range agg {
			for _, d := range byAnalyzer["cliexit"] {
				posns = append(posns, d.Posn)
			}
		}
	}
	if !strings.Contains(strings.Join(posns, " "), "dirty_test.go:6:2") {
		t.Fatalf("go vet -json names no cliexit finding in dirty_test.go (cliexit findings %v):\n%s", posns, out)
	}
}
