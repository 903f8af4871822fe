package main

import (
	"bytes"
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

// TestSweepOverrideBounds sweeps every key of core's override table at the
// table's edges over a small trace: out of range is a usage error (exit
// 2), and so is a cell Validate rejects; any other value runs. Values
// above the daemon's caps (cache=131072) are usage errors here too.
func TestSweepOverrideBounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "small.din")
	var din strings.Builder
	for i := 0; i < 256; i++ {
		fmt.Fprintf(&din, "%d %x\n", i%2, 0x1000+i*12)
	}
	if err := os.WriteFile(path, []byte(din.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, o := range core.Overrides() {
		for _, v := range []int{o.Min - 1, o.Min, o.Max, o.Max + 1} {
			want := 0
			if v < o.Min || v > o.Max {
				want = 2
			} else if cfg, _ := core.ApplyAxis(core.Soft(), o.Key, v); cfg.Validate() != nil {
				want = 2
			}
			x := fmt.Sprintf("%s=%d", o.Key, v)
			if _, errb, code := runSweep(t, "-trace", path, "-x", x); code != want {
				t.Errorf("-x %s: exit %d, want %d (stderr %q)", x, code, want, errb)
			}
		}
	}
	if _, errb, code := runSweep(t, "-trace", path, "-x", "cache=131072"); code != 2 || !strings.Contains(errb, "out of range") {
		t.Errorf("-x cache=131072: exit %d (%q), want usage error 2", code, errb)
	}
}

// TestSweepUsageStatesRanges: -x's usage line states every key of core's
// override table with its range.
func TestSweepUsageStatesRanges(t *testing.T) {
	_, errb, code := runSweep(t, "-h")
	if code != 2 {
		t.Fatalf("-h: exit %d, want 2", code)
	}
	_, usage, _ := strings.Cut(errb, "  -x string\n")
	usage, _, _ = strings.Cut(usage, "\n")
	for _, o := range core.Overrides() {
		if want := fmt.Sprintf("%s %d-%d", o.Key, o.Min, o.Max); !strings.Contains(usage, want) {
			t.Errorf("-x usage %q does not state %q", usage, want)
		}
	}
}

// TestSweepErrorPrefix: every diagnostic is prefixed with the tool name,
// the flag package's own included.
func TestSweepErrorPrefix(t *testing.T) {
	for _, args := range [][]string{{"-x", "zz=5"}, {"-nosuchflag"}} {
		_, errb, code := runSweep(t, append([]string{"-workload", "MV", "-scale", "test"}, args...)...)
		if code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
		if !strings.HasPrefix(errb, "softcache-sweep: ") {
			t.Fatalf("%v: stderr not prefixed: %q", args, errb)
		}
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
