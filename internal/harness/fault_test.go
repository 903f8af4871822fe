package harness

import (
	"context"
	"testing"

	"softcache/internal/core"
	"softcache/internal/workloads"
)

// TestFaultCorpusContained is the acceptance check for fault injection:
// every corrupted/truncated/tag-flipped trace must flow through the
// trace→simulate pipeline with zero panics — framing faults rejected by
// the reader with a structured error, semantic faults absorbed by the
// simulator (under runtime invariant checks) or reported as errors.
func TestFaultCorpusContained(t *testing.T) {
	tr, err := workloads.Trace("MV", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := Corpus(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) < 10 {
		t.Fatalf("corpus too small: %d cases", len(corpus))
	}
	for _, cfgCase := range []struct {
		name string
		cfg  core.Config
	}{
		{"soft", core.Soft()},
		{"standard", core.Standard()},
		{"soft-variable", core.SoftVariable()},
	} {
		t.Run(cfgCase.name, func(t *testing.T) {
			results := RunFaults(context.Background(), corpus, cfgCase.cfg, Options{Workers: 4})
			for i, r := range results {
				if r.Status == StatusPanic {
					t.Errorf("case %s: panic escaped the pipeline:\n%s", corpus[i].Name, r.FailureRecord())
					continue
				}
				if !r.OK() {
					t.Errorf("case %s: %s", corpus[i].Name, r.FailureRecord())
					continue
				}
				if !r.Value.Contained(corpus[i].WantParseError) {
					t.Errorf("case %s: outcome %+v not contained (want parse error: %v)",
						corpus[i].Name, r.Value, corpus[i].WantParseError)
				}
			}
		})
	}
}

// TestFaultCorpusDeterministic: the corpus must be reproducible so that a
// failure report identifies its input exactly.
func TestFaultCorpusDeterministic(t *testing.T) {
	tr, err := workloads.Trace("SpMV", workloads.ScaleTest, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Corpus(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Corpus(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || string(a[i].Data) != string(b[i].Data) {
			t.Fatalf("case %d differs between generations", i)
		}
	}
}

// TestInvariantPanicBecomesFailedRun: a corrupted simulator state detected
// by the runtime invariant checker surfaces as a structured failed-run
// record, not a process crash.
func TestInvariantPanicBecomesFailedRun(t *testing.T) {
	tr, err := workloads.Trace("MV", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	units := []Unit[core.Result]{{
		Key:  "sim:corrupt",
		Meta: map[string]string{"workload": "MV", "seed": "1", "fingerprint": "0x0"},
		Run: func(ctx context.Context) (core.Result, error) {
			// Simulate with checks on; then inject an impossible state by
			// panicking the way the checker does.
			_, err := core.Run(ctx, core.Job{Configs: []core.Config{core.WithRuntimeChecks(core.Soft(), true)}}, tr.Reader())
			if err != nil {
				return core.Result{}, err
			}
			panic("cache: invariant \"hit/miss accounting\" violated after 10 references: injected")
		},
	}}
	results := Run(context.Background(), units, Options{})
	if results[0].Status != StatusPanic {
		t.Fatalf("status = %s, want panic", results[0].Status)
	}
	if results[0].Panic == "" || results[0].Meta["workload"] != "MV" {
		t.Fatalf("failed-run record incomplete: %+v", results[0])
	}
}
