package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"softcache/internal/cli"
	"softcache/internal/core"
	"softcache/internal/metrics"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

func runSim(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestListWorkloads(t *testing.T) {
	out, _, code := runSim(t, "-workloads")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"MV", "SpMV", "MDG-kernel"} {
		if !strings.Contains(out, want) {
			t.Fatalf("workload list missing %s:\n%s", want, out)
		}
	}
}

func TestSimulateWorkload(t *testing.T) {
	out, errb, code := runSim(t, "-workload", "MV", "-scale", "test", "-config", "soft")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	for _, want := range []string{"AMAT", "miss ratio", "bounce-back", "virtual fills"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestAllConfigNames(t *testing.T) {
	for _, cfg := range []string{
		"standard", "victim", "soft", "soft-temporal", "soft-spatial",
		"soft-variable", "bypass", "bypass-buffer", "simplified-2way",
		"soft-prefetch", "standard-prefetch", "stream-buffers", "column-assoc",
		"subblock",
	} {
		_, errb, code := runSim(t, "-workload", "SpMV", "-scale", "test", "-config", cfg)
		if code != 0 {
			t.Fatalf("config %s: exit %d: %s", cfg, code, errb)
		}
	}
}

func TestOverrides(t *testing.T) {
	out, errb, code := runSim(t, "-workload", "MV", "-scale", "test",
		"-config", "standard", "-cache", "16", "-line", "64", "-assoc", "2", "-latency", "30")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "16K/64B/2-way") {
		t.Fatalf("overrides not applied:\n%s", out)
	}
}

func TestStripTags(t *testing.T) {
	out, _, code := runSim(t, "-workload", "MV", "-scale", "test",
		"-config", "soft", "-strip-temporal", "-strip-spatial")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "spatial=0 temporal=0 both=0") {
		t.Fatalf("tags not stripped:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},                                  // neither -workload nor -trace
		{"-workload", "nope"},               // unknown workload
		{"-workload", "MV", "-scale", "xx"}, // bad scale
		{"-workload", "MV", "-config", "zz"},
		{"-workload", "MV", "-trace", "f"}, // mutually exclusive
		{"-trace", "/nonexistent/file"},
	}
	for _, args := range cases {
		if _, _, code := runSim(t, args...); code == 0 {
			t.Fatalf("args %v should fail", args)
		}
	}
	// A negative warmup is a usage error on every source, not a cold run.
	for _, args := range [][]string{
		{"-workload", "MV", "-scale", "test", "-warmup", "-5"},
		{"-trace", "/nonexistent/file", "-warmup", "-1"},
	} {
		if _, errb, code := runSim(t, args...); code != 2 || !strings.Contains(errb, "-warmup") {
			t.Fatalf("args %v: exit %d (%q), want usage error 2", args, code, errb)
		}
	}
}

// TestOutputIsSharedReport pins the CLI's output to the shared
// metrics.SimulationReport renderer. Together with the serve package's E2E
// test (which pins /v1/simulate?format=text to the same renderer), this
// makes CLI and daemon reports byte-identical for identical runs.
func TestOutputIsSharedReport(t *testing.T) {
	out, errb, code := runSim(t, "-workload", "MV", "-scale", "test", "-seed", "3", "-config", "soft")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	tr, err := workloads.Trace("MV", workloads.ScaleTest, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), core.Job{Configs: []core.Config{core.Soft()}}, tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	metrics.SimulationReport(&want, tr.CountTags(), res[0])
	if out != want.String() {
		t.Fatalf("CLI output diverged from metrics.SimulationReport:\n--- CLI\n%s--- shared\n%s", out, want.String())
	}
}

func TestBadFlag(t *testing.T) {
	_, errb, code := runSim(t, "-definitely-not-a-flag")
	if code != 2 {
		t.Fatal("unknown flag should exit 2")
	}
	if !strings.HasPrefix(errb, "softcache-sim: flag provided but not defined") {
		t.Fatalf("stderr not prefixed: %q", errb)
	}
}

// simOverrideFlags are the flags named after core's override keys.
var simOverrideFlags = []string{"cache", "line", "vline", "latency", "assoc"}

// TestOverrideBounds sets each override flag at the edges of core's
// override table. A set flag is applied as given: out of range is a usage
// error (exit 2), never a flag dropped in favour of the named design's
// value; in range prints the report of exactly that config, or is a
// usage error (exit 2) too where Validate rejects it. -latency 0 means
// zero cycles.
func TestOverrideBounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "small.din")
	var din strings.Builder
	for i := 0; i < 256; i++ {
		fmt.Fprintf(&din, "%d %x\n", i%2, 0x1000+i*12)
	}
	if err := os.WriteFile(path, []byte(din.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, key := range simOverrideFlags {
		o, ok := core.LookupOverride(key)
		if !ok {
			t.Fatalf("flag -%s names no override", key)
		}
		for _, v := range []int{o.Min - 1, o.Min, o.Max, o.Max + 1} {
			out, errb, code := runSim(t, "-trace", path, "-"+key, strconv.Itoa(v))
			cfg, _ := core.ApplyAxis(core.Soft(), key, v)
			switch {
			case v < o.Min || v > o.Max:
				if code != 2 || !strings.Contains(errb, "out of range") {
					t.Errorf("-%s %d: exit %d (%q), want usage error 2", key, v, code, errb)
				}
			case cfg.Validate() != nil:
				if code != 2 {
					t.Errorf("-%s %d: exit %d (%q), want usage error 2 (%v)", key, v, code, errb, cfg.Validate())
				}
			case code != 0:
				t.Errorf("-%s %d: exit %d: %s", key, v, code, errb)
			default:
				src, err := cli.OpenSource("", "", path, "paper", 1)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := trace.ReadAll(src)
				src.Close()
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.Run(context.Background(), core.Job{Configs: []core.Config{cfg}}, tr.Reader())
				if err != nil {
					t.Fatal(err)
				}
				var want bytes.Buffer
				metrics.SimulationReport(&want, tr.CountTags(), res[0])
				if out != want.String() {
					t.Errorf("-%s %d: report differs from the config set as given:\n--- CLI\n%s--- want\n%s", key, v, out, want.String())
				}
			}
		}
	}
	// The table's other keys are no softcache-sim flags.
	if _, _, code := runSim(t, "-trace", path, "-bb", "1"); code != 2 {
		t.Errorf("-bb: exit %d, want 2", code)
	}
}

// TestUsageStatesRanges: each override flag's usage line states the
// table's range for it.
func TestUsageStatesRanges(t *testing.T) {
	_, errb, code := runSim(t, "-h")
	if code != 2 {
		t.Fatalf("-h: exit %d, want 2", code)
	}
	for _, key := range simOverrideFlags {
		o, _ := core.LookupOverride(key)
		_, usage, _ := strings.Cut(errb, "  -"+key+" int\n")
		usage, _, _ = strings.Cut(usage, "\n")
		if want := fmt.Sprintf("%d-%d", o.Min, o.Max); !strings.Contains(usage, want) {
			t.Errorf("-%s usage %q does not state the range %s", key, usage, want)
		}
	}
}

// TestEverySourceSameReport pins the streamed sources to one another: a
// saved flat trace, the same trace saved as SCTZ, and the workload
// generated on the fly must print the same report, with and without a
// warmup and tag stripping.
func TestEverySourceSameReport(t *testing.T) {
	dir := t.TempDir()
	tr, err := workloads.Trace("MV", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	save := func(name string, write func(io.Writer, *trace.Trace) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f, tr); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	sources := [][]string{
		{"-trace", save("mv.trace", trace.Write)},
		{"-trace", save("mv.sctz", trace.WriteSCTZ)},
		{"-workload", "MV", "-scale", "test"},
	}
	for _, extra := range [][]string{nil, {"-warmup", "500", "-strip-temporal"}} {
		var base string
		for i, src := range sources {
			args := append(append([]string{"-config", "soft"}, src...), extra...)
			out, errb, code := runSim(t, args...)
			if code != 0 {
				t.Fatalf("%v: exit %d: %s", args, code, errb)
			}
			if i == 0 {
				base = out
			} else if out != base {
				t.Errorf("%v diverged from the flat trace:\n%s\nvs\n%s", args, out, base)
			}
		}
		if extra != nil && !strings.Contains(base, "temporal=0 both=0") {
			t.Errorf("-strip-temporal left temporal tags:\n%s", base)
		}
	}
}
