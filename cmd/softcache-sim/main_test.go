package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	if _, _, code := runSim(t, "-definitely-not-a-flag"); code != 2 {
		t.Fatal("unknown flag should exit 2")
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
