package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runPerfCmd(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestQuickRunAndGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick rows twice")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "BENCH_kernel.json")

	// Each row is timed over at least 20ms: long enough that one scheduler
	// stall on a loaded host cannot inflate a row tenfold and trip the
	// gate below, short enough to keep the two runs near a second.
	const minTime = "20ms"

	// First run: no baseline exists yet; plain report to stdout.
	out, errb, code := runPerfCmd(t, "-quick", "-min-time", minTime, "-out", jsonPath)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "kernel/MV/test/vl64-bb1") {
		t.Fatalf("report missing kernel row:\n%s", out)
	}
	if _, err := os.Stat(jsonPath); err != nil {
		t.Fatalf("JSON artifact not written: %v", err)
	}

	// Second run: the previous -out file becomes the baseline, the delta
	// column appears, and the gate runs (two back-to-back runs of the same
	// binary stay within a generous budget).
	mdPath := filepath.Join(dir, "delta.md")
	out, errb, code = runPerfCmd(t, "-quick", "-min-time", minTime, "-out", jsonPath,
		"-max-regress", "9", "-md", mdPath)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	md, err := os.ReadFile(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "Δ ns/record") {
		t.Fatalf("delta report lacks delta column:\n%s", md)
	}
	if !strings.Contains(errb, "regression gate passed") {
		t.Fatalf("gate did not run:\n%s", errb)
	}
}

func TestUsageErrors(t *testing.T) {
	if _, _, code := runPerfCmd(t, "extra-arg"); code != 2 {
		t.Fatalf("positional argument: exit %d, want 2", code)
	}
	if _, _, code := runPerfCmd(t, "-max-regress", "-1"); code != 2 {
		t.Fatalf("negative budget: exit %d, want 2", code)
	}
	if _, _, code := runPerfCmd(t, "-baseline", "/nonexistent.json"); code != 1 {
		t.Fatalf("missing explicit baseline: exit %d, want 1", code)
	}
}
