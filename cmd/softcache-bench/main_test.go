package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func runBench(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestList(t *testing.T) {
	out, _, code := runBench(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"1a", "6a", "9b", "12sw", "related", "ablations"} {
		if !strings.Contains(out, id) {
			t.Fatalf("figure %s missing from -list:\n%s", id, out)
		}
	}
}

func TestSingleFigure(t *testing.T) {
	out, errb, code := runBench(t, "-fig", "6a", "-scale", "test")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	for _, want := range []string{"Figure 6a", "Standard", "Soft", "PASS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestMarkdownOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exp.md")
	_, errb, code := runBench(t, "-fig", "6b", "-scale", "test", "-md", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	md := string(data)
	for _, want := range []string{"# EXPERIMENTS", "## Figure 6b", "| benchmark |", "- [x]"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestBars(t *testing.T) {
	out, _, code := runBench(t, "-fig", "4a", "-scale", "test", "-bars")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "#") {
		t.Fatal("bar chart not rendered")
	}
}

func TestBenchErrors(t *testing.T) {
	cases := [][]string{
		{},                            // nothing selected
		{"-fig", "nope"},              // unknown figure
		{"-fig", "6a", "-scale", "x"}, // bad scale
		{"-fig", "6a", "-fig", "6a"},  // duplicate figure = duplicate unit key
		{"-nosuchflag"},               // the flag package's own diagnostic
	}
	for _, args := range cases {
		_, errb, code := runBench(t, args...)
		if code != 2 {
			t.Fatalf("args %v: exit %d, want 2 (stderr %q)", args, code, errb)
		}
		if !strings.HasPrefix(errb, "softcache-bench: ") {
			t.Fatalf("args %v: stderr not prefixed: %q", args, errb)
		}
	}
}

// stripElapsed drops the per-figure timing lines, the only output that
// legitimately differs between runs.
func stripElapsed(s string) string {
	var keep []string
	for _, l := range strings.Split(s, "\n") {
		if strings.HasPrefix(l, "(elapsed ") {
			continue
		}
		keep = append(keep, l)
	}
	return strings.Join(keep, "\n")
}

// TestParallelMatchesSequential: reports and shape checks are
// byte-identical whatever the worker count, which follows GOMAXPROCS
// (timing lines aside).
func TestParallelMatchesSequential(t *testing.T) {
	args := []string{"-fig", "6a", "-fig", "6b", "-fig", "4a", "-scale", "test"}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq, errb, code := runBench(t, args...)
	if code != 0 {
		t.Fatalf("sequential: exit %d: %s", code, errb)
	}
	runtime.GOMAXPROCS(4)
	par, errb, code := runBench(t, args...)
	if code != 0 {
		t.Fatalf("parallel: exit %d: %s", code, errb)
	}
	if stripElapsed(seq) != stripElapsed(par) {
		t.Fatalf("parallel output differs:\n--- GOMAXPROCS=1\n%s\n--- GOMAXPROCS=4\n%s", seq, par)
	}
}

func TestCSVOutput(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	_, errb, code := runBench(t, "-fig", "6a", "-scale", "test", "-csv", dir)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig6a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	csvText := string(data)
	for _, want := range []string{"benchmark,Standard,Soft-T,Soft-S,Soft", "MV,", "SpMV,"} {
		if !strings.Contains(csvText, want) {
			t.Fatalf("csv missing %q:\n%s", want, csvText)
		}
	}
}
