package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runTool(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func writeLoop(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.loop")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFig5Deps: the §2.2/fig. 5 loop's dependence groups and tags — the
// internal/locality Example, surfaced on the command line.
func TestFig5Deps(t *testing.T) {
	path := writeLoop(t, `
program fig5
array A(100, 100)
array B(100, 101)
array X(100)
array Y(100)
do i = 0, 99
  do j = 0, 99
    load Y(i)
    load A(i, j)
    load B(j, i)
    load B(j, i + 1)
    load X(j)
    store Y(i)
  end
end
`)
	out, errb, code := runTool(t, "-source", path, "-deps")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	for _, want := range []string{
		// The exact tags of the locality Example.
		"load Y(i)#1              temporal=true  spatial=true",
		"load A(i,j)#2            temporal=false spatial=false",
		"load B(j,i)#3            temporal=true  spatial=false",
		"load B(j,i+1)#4          temporal=true  spatial=true",
		"load X(j)#5              temporal=true  spatial=true",
		"store Y(i)#6             temporal=true  spatial=true",
		// The two uniformly generated groups and their leaders.
		"uniformly generated groups (2)",
		"B shape", "(leader load B(j,i+1)#4)",
		"Y shape", "(leader load Y(i)#1)",
		// The B group's carried dependence and the stride warning on A.
		"load B(j,i+1)#4 -> load B(j,i)#3",
		"stride 100 elements",
		"interchanging DO i inward",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

// TestInterchangeFlagged: flipping the MV loop order gets the advisory.
func TestInterchangeFlagged(t *testing.T) {
	path := writeLoop(t, `
program mv_flipped
array A(96, 96)
array X(96)
array Y(96)
do j2 = 0, 95
  do j1 = 0, 95
    load A(j2, j1)
  end
end
`)
	out, _, code := runTool(t, "-source", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "interchanging DO j2 inward would make this reference stride-1") {
		t.Fatalf("no interchange advisory:\n%s", out)
	}
}

// TestErrorExit: error-severity findings (a provable out-of-bounds
// subscript) make the tool exit nonzero.
func TestErrorExit(t *testing.T) {
	path := writeLoop(t, `
program oob
array A(10)
do i = 0, 10
  load A(i)
end
`)
	out, _, code := runTool(t, "-source", path)
	if code != 1 {
		t.Fatalf("exit = %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "error [bounds]") {
		t.Fatalf("no bounds error in output:\n%s", out)
	}
}

// TestWarningsDoNotFail: stencil-style call poisoning is a warning only.
func TestWarningsDoNotFail(t *testing.T) {
	path := writeLoop(t, `
program warned
array X(100)
do i = 0, 99
  do j = 0, 99
    load X(j)
    call helper
  end
end
`)
	out, _, code := runTool(t, "-source", path)
	if code != 0 {
		t.Fatalf("exit = %d, want 0:\n%s", code, out)
	}
	if !strings.Contains(out, "warning [callpoison]") {
		t.Fatalf("no callpoison warning:\n%s", out)
	}
}

// jsonLine is the union shape of the -json stream: finding lines carry
// pass/severity/message, the trailing audit summary carries audit.
type jsonLine struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Pass     string `json:"pass"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
	Program  string `json:"program"`
	Audit    *struct {
		Temporal struct {
			Precision float64 `json:"precision"`
		} `json:"temporal"`
		Spatial struct {
			Precision float64 `json:"precision"`
		} `json:"spatial"`
	} `json:"audit"`
}

func parseJSONLines(t *testing.T, out string) []jsonLine {
	t.Helper()
	var lines []jsonLine
	for _, raw := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		var l jsonLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("line %q is not a JSON object: %v", raw, err)
		}
		lines = append(lines, l)
	}
	return lines
}

// TestJSONOutput: -json emits one object per line — findings first, then
// the audit summary for an -audit run.
func TestJSONOutput(t *testing.T) {
	out, errb, code := runTool(t, "-workload", "MV", "-scale", "test", "-audit", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	lines := parseJSONLines(t, out)
	last := lines[len(lines)-1]
	if last.Program != "MV" || last.Audit == nil {
		t.Fatalf("last line is not the MV audit summary: %+v", last)
	}
	if last.Audit.Temporal.Precision < 0.9 || last.Audit.Spatial.Precision < 0.9 {
		t.Fatalf("MV precision below 0.9: %+v", last.Audit)
	}
	for _, l := range lines[:len(lines)-1] {
		if l.File != "MV" || l.Pass == "" || l.Message == "" || l.Severity == "" {
			t.Fatalf("finding line missing fields: %+v", l)
		}
	}
}

// TestJSONFindings: error findings stream as positioned diagnostics and
// the exit code still reflects them.
func TestJSONFindings(t *testing.T) {
	path := writeLoop(t, `
program oob
array A(10)
do i = 0, 10
  load A(i)
end
`)
	out, _, code := runTool(t, "-source", path, "-json")
	if code != 1 {
		t.Fatalf("exit = %d, want 1:\n%s", code, out)
	}
	var sawBounds bool
	for _, l := range parseJSONLines(t, out) {
		if l.File != path {
			t.Fatalf("finding attributed to %q, want %q", l.File, path)
		}
		if l.Pass == "bounds" && l.Severity == "error" {
			if l.Line == 0 {
				t.Fatalf("bounds finding carries no source line: %+v", l)
			}
			sawBounds = true
		}
	}
	if !sawBounds {
		t.Fatalf("no bounds error in JSON stream:\n%s", out)
	}
}

// TestAllWorkloads: -workload all vets the nine benchmarks and prints the
// audit summary table.
func TestAllWorkloads(t *testing.T) {
	out, errb, code := runTool(t, "-workload", "all", "-scale", "test", "-audit")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	for _, name := range []string{"MDG", "BDN", "DYF", "TRF", "NAS", "Slalom", "LIV", "MV", "SpMV"} {
		if !strings.Contains(out, "== "+name+" ==") {
			t.Fatalf("workload %s missing:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "tag-precision audit: all workloads") {
		t.Fatalf("no summary table:\n%s", out)
	}
}

// TestPassesListing: -passes documents the registry.
func TestPassesListing(t *testing.T) {
	out, _, code := runTool(t, "-passes")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, p := range []string{"bounds", "deadstore", "stride", "callpoison", "indirect", "tagaudit"} {
		if !strings.Contains(out, p) {
			t.Fatalf("pass %s missing from listing:\n%s", p, out)
		}
	}
}

// TestOperationalErrors: failures that prevent the checks from running —
// an unreadable source file, an unknown workload — exit 2, leaving exit 1
// to mean "the program is dirty".
func TestOperationalErrors(t *testing.T) {
	_, errb, code := runTool(t, "-source", filepath.Join(t.TempDir(), "missing.loop"))
	if code != 2 {
		t.Fatalf("missing source: exit %d, want 2: %s", code, errb)
	}
	if !strings.Contains(errb, "softcache-vet:") {
		t.Fatalf("operational error not prefixed with the tool name: %q", errb)
	}
	if _, _, code := runTool(t, "-workload", "NOPE"); code != 2 {
		t.Fatalf("unknown workload: exit %d, want 2", code)
	}
}

// TestUsageErrors: bad flag combinations exit 2.
func TestUsageErrors(t *testing.T) {
	if _, _, code := runTool(t); code != 2 {
		t.Fatalf("no input: exit %d, want 2", code)
	}
	if _, _, code := runTool(t, "-workload", "MV", "-source", "x.loop"); code != 2 {
		t.Fatalf("both inputs: exit %d, want 2", code)
	}
	if _, _, code := runTool(t, "-workload", "MV", "-scale", "huge"); code != 2 {
		t.Fatalf("bad scale: exit %d, want 2", code)
	}
	if _, errb, code := runTool(t, "-nosuchflag"); code != 2 || !strings.HasPrefix(errb, "softcache-vet: ") {
		t.Fatalf("unknown flag: exit %d, stderr %q; want 2 and the tool prefix", code, errb)
	}
}
