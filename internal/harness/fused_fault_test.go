package harness

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"softcache/internal/core"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

// TestFaultCorpusFused pushes the fault-injection corpus through the fused
// kernel: each corpus case becomes one FusedUnit whose single trace pass
// drives a whole config group (core.Run). The containment
// contract is the same as the per-config pipeline's — framing faults are
// rejected by the parser, semantic faults simulate or fail with an error,
// and no case may escape as a panic — but the code path is the fused
// decoder loop the service daemon uses, not the scalar one.
func TestFaultCorpusFused(t *testing.T) {
	tr, err := workloads.Trace("MV", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := Corpus(tr)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []core.Config{
		core.WithRuntimeChecks(core.Soft(), true),
		core.Standard(),
		core.Victim(),
	}
	descs := make([]string, len(cfgs))
	for i, c := range cfgs {
		descs[i] = core.Describe(c)
	}

	units := make([]Unit[Fused[float64]], len(corpus))
	for i, fc := range corpus {
		fc := fc
		units[i] = FusedUnit("fused-fault:"+fc.Name, map[string]string{"case": fc.Name}, descs,
			func(runCtx context.Context) ([]float64, error) {
				parsed, err := trace.Read(bytes.NewReader(fc.Data))
				if err != nil {
					if fc.WantParseError {
						// Rejection is the contained outcome; report a
						// sentinel row so the unit counts as ok.
						return make([]float64, len(cfgs)), nil
					}
					return nil, fmt.Errorf("unexpected parse rejection: %w", err)
				}
				if fc.WantParseError {
					return nil, fmt.Errorf("corrupt stream accepted by parser")
				}
				results, err := core.Run(runCtx, core.Job{Configs: cfgs}, parsed.Reader())
				if err != nil {
					// A structured simulation failure is contained too.
					return make([]float64, len(cfgs)), nil
				}
				row := make([]float64, len(results))
				for j, res := range results {
					row[j] = res.AMAT()
				}
				return row, nil
			})
	}

	results, err := Run(context.Background(), units, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Status == StatusPanic {
			t.Errorf("case %s: panic escaped the fused pipeline:\n%s", corpus[i].Name, r.FailureRecord())
			continue
		}
		if !r.OK() {
			t.Errorf("case %s: %s", corpus[i].Name, r.FailureRecord())
		}
	}
}

// TestValidatePanicContained pins the resume path's panic containment: a
// Validate hook that panics on a journal value (journals are external
// input — old builds, hand edits, corruption) must reject the value and
// re-run the unit, not crash the resumed process.
func TestValidatePanicContained(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	var runs atomic.Int64
	unit := func(validate func(int) error) []Unit[int] {
		return []Unit[int]{{
			Key: "unit:v",
			Run: func(context.Context) (int, error) {
				runs.Add(1)
				return 42, nil
			},
			Validate: validate,
		}}
	}

	// Seed the journal with an ok entry.
	if _, err := Run(context.Background(), unit(nil), Options{JournalPath: journal}); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("seed run ran %d times", runs.Load())
	}

	var log bytes.Buffer
	results, err := Run(context.Background(), unit(func(int) error {
		var m map[string]int
		m["boom"]++ // nil-map write: a realistic Validate bug
		return nil
	}), Options{JournalPath: journal, Resume: true, Log: &log})
	if err != nil {
		t.Fatalf("resume crashed the harness: %v", err)
	}
	if results[0].Status != StatusOK || results[0].Value != 42 {
		t.Fatalf("unit was not re-run after panicking Validate: %+v", results[0])
	}
	if runs.Load() != 2 {
		t.Fatalf("unit ran %d times, want 2 (seed + forced re-run)", runs.Load())
	}
	if !strings.Contains(log.String(), "rejected") || !strings.Contains(log.String(), "panicked") {
		t.Fatalf("rejection not logged: %q", log.String())
	}

	// A healthy Validate still resumes from the same journal.
	results, err = Run(context.Background(), unit(func(v int) error {
		if v != 42 {
			return fmt.Errorf("unexpected value %d", v)
		}
		return nil
	}), Options{JournalPath: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != StatusResumed {
		t.Fatalf("status %s, want resumed", results[0].Status)
	}
	if runs.Load() != 2 {
		t.Fatalf("healthy Validate re-ran the unit (%d runs)", runs.Load())
	}
}
