package core

import (
	"context"
	"testing"

	"softcache/internal/cache"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

// TestAccessSteadyStateZeroAllocs is the tentpole's headline property: once
// the simulator is warm (scratch buffers grown, caches populated), the
// simulate loop allocates nothing, for every design point in the paper's
// matrix.
func TestAccessSteadyStateZeroAllocs(t *testing.T) {
	tr, err := workloads.Trace("MV", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string]Config{
		"Standard":          Standard(),
		"Soft":              Soft(),
		"SoftVariable":      SoftVariable(),
		"SoftTemporal":      SoftTemporal(),
		"SoftSpatial":       SoftSpatial(),
		"Victim":            Victim(),
		"BypassPlain":       BypassPlain(),
		"BypassBuffered":    BypassBuffered(),
		"SetAssoc2":         SetAssoc(Soft(), 2),
		"SimplifiedSoft2":   SimplifiedSoftAssoc(2),
		"StreamBuffers":     StandardStreamBuffers(),
		"ColumnAssociative": ColumnAssociative(),
		"Subblocked":        Subblocked(),
		"PrefetchSW":        WithPrefetch(Soft(), true),
		"WriteThroughAlloc": WithWritePolicy(Standard(), cache.WriteThroughAllocate),
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			sim, err := cache.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Warm up: populate the caches and grow every scratch buffer.
			for _, r := range tr.Records {
				sim.Access(r)
			}
			recs := tr.Records
			if len(recs) > 4096 {
				recs = recs[:4096]
			}
			allocs := testing.AllocsPerRun(10, func() {
				for _, r := range recs {
					sim.Access(r)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state Access allocated %.1f times per %d records, want 0",
					allocs, len(recs))
			}
		})
	}
}

// TestSimulateStreamAllocsFlat pins the complementary property for a
// one-config Run: its allocation count is a constant (simulator
// construction plus one pooled batch at worst) and does not scale with
// trace length, over serialised bytes and over an in-memory Trace.Reader.
func TestSimulateStreamAllocsFlat(t *testing.T) {
	requireFlatAllocs(t, []Config{Soft()})
}

// TestSimulateManyAllocsFlat extends the flat-allocation guarantee to the
// fused path: one Run pass allocates a constant amount (the simulators,
// the result slice and one pooled batch) regardless of trace length — the
// per-batch fan-out over N simulators allocates nothing.
func TestSimulateManyAllocsFlat(t *testing.T) {
	requireFlatAllocs(t, []Config{Standard(), Soft(), SoftVariable(), Victim()})
}

// requireFlatAllocs measures Run's allocations over test- and paper-scale
// MV from each source and fails if they grow with the record count.
func requireFlatAllocs(t *testing.T, cfgs []Config) {
	t.Helper()
	small, err := workloads.Trace("MV", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := workloads.Trace("MV", workloads.ScalePaper, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Records) < 4*len(small.Records) {
		t.Fatalf("paper-scale trace (%d records) is not meaningfully larger than test scale (%d)",
			len(big.Records), len(small.Records))
	}
	smallData, bigData := encodeTrace(t, small), encodeTrace(t, big)
	sources := map[string]func(tr *trace.Trace, data []byte) trace.BatchReader{
		"flat": func(_ *trace.Trace, data []byte) trace.BatchReader {
			r, err := trace.NewReaderBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
		"memory": func(tr *trace.Trace, _ []byte) trace.BatchReader { return tr.Reader() },
	}
	job := Job{Configs: cfgs}
	for name, open := range sources {
		measure := func(tr *trace.Trace, data []byte) float64 {
			return testing.AllocsPerRun(10, func() {
				if _, err := Run(context.Background(), job, open(tr, data)); err != nil {
					t.Fatal(err)
				}
			})
		}
		allocsSmall := measure(small, smallData)
		allocsBig := measure(big, bigData)
		extraRecords := float64(len(big.Records) - len(small.Records))
		perRecord := (allocsBig - allocsSmall) / extraRecords
		// Allow a little jitter from sync.Pool refills after GC; per-record
		// allocation would show up as ~1.0 here.
		if perRecord > 0.001 {
			t.Errorf("%s: Run allocations scale with trace length: %.1f allocs at %d records vs %.1f at %d (%.4f/record)",
				name, allocsBig, len(big.Records), allocsSmall, len(small.Records), perRecord)
		}
	}
}
