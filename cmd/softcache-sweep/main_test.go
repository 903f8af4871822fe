package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"softcache/internal/core"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

func runSweep(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestOneDimensionalSweep(t *testing.T) {
	out, errb, code := runSweep(t, "-workload", "MV", "-scale", "test",
		"-x", "latency=5,10,20")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "latency,5,10,20" {
		t.Fatalf("header = %q", lines[0])
	}
	cells := strings.Split(lines[1], ",")
	if cells[0] != "amat" || len(cells) != 4 {
		t.Fatalf("row = %q", lines[1])
	}
	// AMAT must grow with latency.
	var prev float64
	for i, c := range cells[1:] {
		v, err := strconv.ParseFloat(c, 64)
		if err != nil {
			t.Fatalf("cell %q: %v", c, err)
		}
		if i > 0 && v <= prev {
			t.Fatalf("AMAT not increasing with latency: %v", lines[1])
		}
		prev = v
	}
}

func TestTwoDimensionalSweep(t *testing.T) {
	out, errb, code := runSweep(t, "-workload", "SpMV", "-scale", "test",
		"-config", "soft", "-x", "vline=0,64,128", "-y", "cache=4,8", "-metric", "miss")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows:\n%s", out)
	}
	if !strings.HasPrefix(lines[0], `cache\vline,0,64,128`) {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "4,") || !strings.HasPrefix(lines[2], "8,") {
		t.Fatalf("row labels wrong:\n%s", out)
	}
}

func TestSweepErrors(t *testing.T) {
	cases := [][]string{
		{},                  // no -x
		{"-x", "latency=5"}, // no workload
		{"-workload", "MV", "-x", "zz=5"},
		{"-workload", "MV", "-x", "latency"},
		{"-workload", "MV", "-x", "latency=abc"},
		{"-workload", "MV", "-x", "latency=5", "-metric", "bogus"},
		{"-workload", "MV", "-x", "latency=5", "-config", "bogus"},
		{"-workload", "MV", "-source", "f", "-x", "latency=5"},
	}
	for _, args := range cases {
		if _, _, code := runSweep(t, append(args, "-scale", "test")...); code == 0 {
			t.Fatalf("args %v should fail", args)
		}
	}
}

// TestSweepAxisEdgeCases pins down the axis-spec validation: every
// malformed spec is a usage error (exit 2), never a runtime failure or a
// silent wrong matrix.
func TestSweepAxisEdgeCases(t *testing.T) {
	usage := [][]string{
		{"-x", "latency=5,10", "-y", "latency=20"}, // x and y sweep the same key
		{"-x", "cache=0,4"},                        // structural zero
		{"-x", "cache=-4"},                         // structural negative
		{"-x", "line=0"},
		{"-x", "assoc=0,1"},
		{"-x", "latency=-1"}, // feature negative
		{"-x", "vline=-64"},
		{"-x", "bb=-2"},
		{"-x", "sbuf=-1"},
		{"-x", "latency="},      // empty value list
		{"-x", "latency=5,"},    // trailing comma = empty value
		{"-x", "latency=5,,10"}, // embedded empty value
		{"-x", "latency=5,5"},   // duplicate value (duplicate cell key)
		{"-x", "=5,10"},         // empty key
		{"-resume", "-x", "latency=5"},
	}
	for _, args := range usage {
		args = append([]string{"-workload", "MV", "-scale", "test"}, args...)
		if _, errb, code := runSweep(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr %q)", args, code, errb)
		}
	}
	// Zero is a value, not an error, for the optional features.
	ok := [][]string{
		{"-x", "vline=0,64"},
		{"-x", "bb=0,4"},
		{"-x", "sbuf=0,2"},
		{"-x", "latency=0,5"},
	}
	for _, args := range ok {
		args = append([]string{"-workload", "MV", "-scale", "test"}, args...)
		if _, errb, code := runSweep(t, args...); code != 0 {
			t.Errorf("args %v: exit %d, want 0 (stderr %q)", args, code, errb)
		}
	}
}

// TestSweepErrorPrefix: every diagnostic is prefixed with the tool name.
func TestSweepErrorPrefix(t *testing.T) {
	_, errb, code := runSweep(t, "-workload", "MV", "-scale", "test", "-x", "zz=5")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.HasPrefix(errb, "softcache-sweep: ") {
		t.Fatalf("stderr not prefixed: %q", errb)
	}
}

// TestSweepParallelMatchesSequential: the matrix is byte-identical
// whatever the worker count, which follows GOMAXPROCS.
func TestSweepParallelMatchesSequential(t *testing.T) {
	args := []string{"-workload", "SpMV", "-scale", "test",
		"-x", "cache=4,8,16", "-y", "latency=10,20", "-metric", "miss"}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq, errb, code := runSweep(t, args...)
	if code != 0 {
		t.Fatalf("sequential: exit %d: %s", code, errb)
	}
	runtime.GOMAXPROCS(4)
	par, errb, code := runSweep(t, args...)
	if code != 0 {
		t.Fatalf("parallel: exit %d: %s", code, errb)
	}
	if seq != par {
		t.Fatalf("parallel output differs:\n--- GOMAXPROCS=1\n%s--- GOMAXPROCS=4\n%s", seq, par)
	}
}

// TestSweepResume: a second run against the same journal replays every
// cell and prints the same matrix.
func TestSweepResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	args := []string{"-workload", "MV", "-scale", "test",
		"-x", "latency=5,10,20", "-journal", journal}
	first, errb, code := runSweep(t, args...)
	if code != 0 {
		t.Fatalf("first run: exit %d: %s", code, errb)
	}
	second, errb, code := runSweep(t, append(args, "-resume")...)
	if code != 0 {
		t.Fatalf("resume run: exit %d: %s", code, errb)
	}
	if first != second {
		t.Fatalf("resumed matrix differs:\n%s\nvs\n%s", first, second)
	}
	if !strings.Contains(errb, "resumed") {
		t.Fatalf("resume not reported on stderr: %q", errb)
	}
}

// TestSweepResumeRejectsReshapedAxis: a journaled row's key covers its
// config group; editing -x between runs must re-run the row with the new
// group rather than replaying a stale value.
func TestSweepResumeRejectsReshapedAxis(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	_, errb, code := runSweep(t, "-workload", "MV", "-scale", "test",
		"-x", "latency=5,10,20", "-journal", journal)
	if code != 0 {
		t.Fatalf("first run: exit %d: %s", code, errb)
	}
	out, errb, code := runSweep(t, "-workload", "MV", "-scale", "test",
		"-x", "latency=5,30", "-journal", journal, "-resume")
	if code != 0 {
		t.Fatalf("reshaped run: exit %d: %s", code, errb)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "latency,5,30" {
		t.Fatalf("header = %q", lines[0])
	}
	if cells := strings.Split(lines[1], ","); len(cells) != 3 || cells[1] == "error" || cells[2] == "error" {
		t.Fatalf("row = %q", lines[1])
	}
	if strings.Contains(errb, "resumed row:") {
		t.Fatalf("stale row replayed despite reshaped axis: %q", errb)
	}
}

// TestSweepResumeKeyIsComplete: a row resumes only for the computation
// that journaled it. Changing any input its values depend on — the
// workload, the metric, the base config, the seed or the other axis —
// re-runs the row and prints exactly what a fresh run prints; unchanged
// arguments still resume every row.
func TestSweepResumeKeyIsComplete(t *testing.T) {
	base := []string{"-workload", "MV", "-scale", "test", "-x", "cache=4,8"}
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	first, errb, code := runSweep(t, append(base, "-journal", journal)...)
	if code != 0 {
		t.Fatalf("journaled run: exit %d: %s", code, errb)
	}
	resumed, errb, code := runSweep(t, append(base, "-journal", journal, "-resume")...)
	if code != 0 || resumed != first {
		t.Fatalf("unchanged resume: exit %d, matrix\n%s\nwant\n%s", code, resumed, first)
	}
	if n := strings.Count(errb, "resumed row:"); n != 1 {
		t.Fatalf("unchanged resume replayed %d of 1 row: %q", n, errb)
	}

	// with replaces the flag's value in base, or appends the flag.
	with := func(flag, value string) []string {
		args := append([]string(nil), base...)
		for i := 0; i < len(args); i += 2 {
			if args[i] == flag {
				args[i+1] = value
				return args
			}
		}
		return append(args, flag, value)
	}
	for _, args := range [][]string{
		with("-workload", "SpMV"),
		with("-metric", "miss"),
		with("-config", "standard"),
		with("-seed", "2"),
		with("-y", fmt.Sprintf("latency=%d,%d", core.DefaultLatency/2, core.DefaultLatency*2)),
	} {
		fresh, errb, code := runSweep(t, args...)
		if code != 0 {
			t.Fatalf("%v fresh: exit %d: %s", args, code, errb)
		}
		// A private copy of the journal, so no case sees another's rows.
		path := filepath.Join(t.TempDir(), "sweep.jsonl")
		data, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, errb, code := runSweep(t, append(args, "-journal", path, "-resume")...)
		if code != 0 {
			t.Fatalf("%v resumed: exit %d: %s", args, code, errb)
		}
		if strings.Contains(errb, "resumed row:") {
			t.Errorf("%v replayed another run's row: %q", args, errb)
		}
		if got != fresh {
			t.Errorf("%v resumed matrix differs from a fresh run:\n%s\nwant\n%s", args, got, fresh)
		}
	}
}

// TestSweepResumeRejectsTornRow: a journaled row whose value has the
// wrong width (a hand-edited line) fails the sweep instead of crashing it
// or printing a torn matrix.
func TestSweepResumeRejectsTornRow(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	args := []string{"-workload", "MV", "-scale", "test", "-x", "cache=4,8", "-journal", journal}
	if _, errb, code := runSweep(t, args...); code != 0 {
		t.Fatalf("first run: exit %d: %s", code, errb)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]any
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	e["value"] = []float64{1}
	torn, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, append(torn, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errb, code := runSweep(t, append(args, "-resume")...)
	if code != 1 {
		t.Fatalf("torn row: exit %d, want 1\n%s%s", code, out, errb)
	}
	if !strings.Contains(out, "amat,error,error") || !strings.Contains(errb, "has 1 values, want 2") {
		t.Fatalf("torn row not reported:\n%s%s", out, errb)
	}
}

// TestSweepFromTraceFile: -trace accepts a saved compressed trace and
// produces the same matrix as sweeping the generating workload.
func TestSweepFromTraceFile(t *testing.T) {
	tr, err := workloads.Trace("MV", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mv.sctz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteSCTZ(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var fromW, fromF, errb bytes.Buffer
	if code := run([]string{"-workload", "MV", "-scale", "test", "-x", "cache=4,8"}, &fromW, &errb); code != 0 {
		t.Fatalf("workload sweep: exit %d: %s", code, errb.String())
	}
	errb.Reset()
	if code := run([]string{"-trace", path, "-x", "cache=4,8"}, &fromF, &errb); code != 0 {
		t.Fatalf("trace-file sweep: exit %d: %s", code, errb.String())
	}
	if fromW.String() != fromF.String() {
		t.Fatalf("matrices diverged:\n%s\nvs\n%s", fromW.String(), fromF.String())
	}
}
