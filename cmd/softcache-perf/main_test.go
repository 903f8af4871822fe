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

// TestQuickRunAndGate runs the quick rows once: the JSON report is
// written, the markdown report goes to stdout, and the codec budget says
// in one line that a test-scale run has nothing for it to check.
func TestQuickRunAndGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick rows")
	}
	jsonPath := filepath.Join(t.TempDir(), "BENCH_kernel.json")
	out, errb, code := runPerfCmd(t, "-quick", "-min-time", "20ms", "-out", jsonPath)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "kernel/MV/test/vl64-bb1") {
		t.Fatalf("report missing kernel row:\n%s", out)
	}
	if _, err := os.Stat(jsonPath); err != nil {
		t.Fatalf("JSON artifact not written: %v", err)
	}
	if n := strings.Count(errb, "codec budget not checked"); n != 1 {
		t.Fatalf("quick run printed %d codec-budget lines, want 1:\n%s", n, errb)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"extra-arg"}, {"-baseline", "x"}, {"-max-regress", "0.15"}} {
		_, errb, code := runPerfCmd(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.HasPrefix(errb, "softcache-perf: ") {
			t.Errorf("%v: stderr not prefixed: %q", args, errb)
		}
	}
}
