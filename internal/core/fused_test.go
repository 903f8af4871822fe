package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"softcache/internal/cache"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

// fusedVariants mirrors the refmodel differential matrix: every mechanism
// the simulator models, so the fused kernel is checked against the looped
// one on each design point, not just the figure configurations.
func fusedVariants() []Config {
	random2 := SetAssoc(Standard(), 2)
	random2.Replacement = cache.ReplaceRandom
	fifo2 := SetAssoc(Standard(), 2)
	fifo2.Replacement = cache.ReplaceFIFO
	tinySoft := WithGeometry(Soft(), 2048, 16, 64)
	return []Config{
		Standard(),
		Soft(),
		SoftVariable(),
		SoftTemporal(),
		SoftSpatial(),
		Victim(),
		BypassPlain(),
		BypassBuffered(),
		SetAssoc(Soft(), 2),
		SetAssoc(Soft(), 4),
		SimplifiedSoftAssoc(2),
		SimplifiedSoftAssoc(4),
		StandardStreamBuffers(),
		ColumnAssociative(),
		Subblocked(),
		WithPrefetch(Soft(), true),
		WithPrefetch(Soft(), false),
		WithWritePolicy(Standard(), cache.WriteThroughAllocate),
		random2,
		fifo2,
		tinySoft,
	}
}

func encodeTrace(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamOne runs cfg alone through Run: the single-config pass that is the
// looped reference for the fused one.
func streamOne(cfg Config, r trace.BatchReader) (Result, error) {
	results, err := Run(context.Background(), Job{Configs: []Config{cfg}}, r)
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// requireIdenticalResults compares the fused results against one
// single-config streaming pass per configuration over the same serialised
// bytes.
// reflect.DeepEqual over Result covers every Stats field, so "the same
// AMAT" is not enough — the two paths must agree cycle for cycle and
// counter for counter.
func requireIdenticalResults(t *testing.T, cfgs []Config, data []byte) {
	t.Helper()
	r, err := trace.NewReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := Run(context.Background(), Job{Configs: cfgs}, r)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fused) != len(cfgs) {
		t.Fatalf("Run returned %d results for %d configs", len(fused), len(cfgs))
	}
	for i, cfg := range cfgs {
		r, err := trace.NewReaderBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		looped, err := streamOne(cfg, r)
		if err != nil {
			t.Fatalf("streamOne(%s): %v", Describe(cfg), err)
		}
		if !reflect.DeepEqual(fused[i], looped) {
			t.Errorf("config %d (%s): fused result diverges from looped single-config runs:\nfused:  %+v\nlooped: %+v",
				i, Describe(cfg), fused[i], looped)
		}
	}
}

// TestSimulateManyMatchesStream is the fused kernel's core contract: over
// every workload, the result of one Run pass across the full
// variant matrix is byte-identical to streaming each configuration on its
// own. -short trims the sweep to one workload.
func TestSimulateManyMatchesStream(t *testing.T) {
	cfgs := fusedVariants()
	for _, w := range workloads.Benchmarks() {
		if testing.Short() && w != "MV" {
			continue
		}
		t.Run(w, func(t *testing.T) {
			tr, err := workloads.Trace(w, workloads.ScaleTest, 1)
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalResults(t, cfgs, encodeTrace(t, tr))
		})
	}
}

// fusedRandomTrace synthesizes an adversarial trace in the same spirit as
// the refmodel differential suite: a conflict-heavy working set with far
// jumps, stores, tag hints and software prefetches, seeded for replay.
func fusedRandomTrace(seed int64, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, 0, n)
	for i := 0; i < n; i++ {
		addr := uint64(rng.Intn(1 << 14))
		switch rng.Intn(8) {
		case 0:
			addr += 1 << 20
		case 1:
			addr = uint64(rng.Intn(1 << 9))
		}
		addr &^= 3
		r := trace.Record{
			Addr:     addr,
			RefID:    uint32(rng.Intn(64)),
			Gap:      uint8(rng.Intn(4)),
			Size:     uint8(4 << rng.Intn(2)),
			Write:    rng.Intn(10) < 3,
			Temporal: rng.Intn(4) == 0,
			Spatial:  rng.Intn(4) == 0,
		}
		if r.Spatial {
			r.VirtualHint = uint8(rng.Intn(4))
		}
		if rng.Intn(20) == 0 {
			r = trace.Record{Addr: addr, SoftwarePrefetch: true, Gap: uint8(rng.Intn(4))}
		}
		recs = append(recs, r)
	}
	return &trace.Trace{Name: "fused-random", Records: recs}
}

// TestSimulateManyRandomTraces hammers the fused kernel with seeded
// adversarial traces across the full variant matrix — the structured
// workloads' complement, heavy on evictions, swaps and prefetches.
func TestSimulateManyRandomTraces(t *testing.T) {
	n := 20_000
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		n = 4_000
		seeds = seeds[:1]
	}
	cfgs := fusedVariants()
	for _, seed := range seeds {
		requireIdenticalResults(t, cfgs, encodeTrace(t, fusedRandomTrace(seed, n)))
	}
}

// TestSimulateManyTraceMatchesStream pins the in-memory wrapper kept for
// the benchmark harness (Run over Trace.Reader) to the streaming contract.
func TestSimulateManyTraceMatchesStream(t *testing.T) {
	tr, err := workloads.Trace("SpMV", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := fusedVariants()
	fused, err := SimulateManyTrace(context.Background(), cfgs, tr)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeTrace(t, tr)
	for i, cfg := range cfgs {
		r, err := trace.NewReaderBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		looped, err := streamOne(cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fused[i], looped) {
			t.Errorf("config %d (%s): SimulateManyTrace diverges from a single-config stream:\nfused:  %+v\nlooped: %+v",
				i, Describe(cfg), fused[i], looped)
		}
	}
}

// TestSimulateManyCancellation verifies that cancellation discards partial
// results consistently: the caller gets a nil slice and an error wrapping
// context.Canceled, from Run and from the in-memory wrapper.
func TestSimulateManyCancellation(t *testing.T) {
	tr, err := workloads.Trace("MV", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{Standard(), Soft()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	r, err := trace.NewReaderBytes(encodeTrace(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ctx, Job{Configs: cfgs}, r)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Run on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("Run on cancelled ctx returned partial results: %+v", res)
	}

	res, err = SimulateManyTrace(ctx, cfgs, tr)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("SimulateManyTrace on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("SimulateManyTrace on cancelled ctx returned partial results: %+v", res)
	}
}

// TestSimulateManyEdgeCases covers the degenerate shapes: an empty config
// slice completes immediately (still draining the reader is not required),
// and an invalid config surfaces its validation error with the index.
func TestSimulateManyEdgeCases(t *testing.T) {
	tr, err := workloads.Trace("MV", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeTrace(t, tr)

	r, err := trace.NewReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Job{}, r)
	if err != nil {
		t.Fatalf("Run with no configs: %v", err)
	}
	if len(res) != 0 {
		t.Fatalf("Run with no configs returned %d results", len(res))
	}

	bad := Standard()
	bad.CacheSize = 3 << 10 // not a power of two
	r, err = trace.NewReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), Job{Configs: []Config{Standard(), bad}}, r); err == nil {
		t.Fatal("Run accepted an invalid config")
	}
}
