package harness

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"softcache/internal/core"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

// TestFaultCorpusFused pushes the fault-injection corpus through the fused
// kernel: each corpus case becomes one unit whose single trace pass
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
	units := make([]Unit[[]float64], len(corpus))
	for i, fc := range corpus {
		fc := fc
		units[i] = Unit[[]float64]{
			Key:  "fused-fault:" + fc.Name,
			Meta: map[string]string{"case": fc.Name},
			Run: func(runCtx context.Context) ([]float64, error) {
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
			},
		}
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
