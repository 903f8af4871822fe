package tracegen_test

import (
	"runtime"
	"testing"
	"unsafe"

	"softcache/internal/locality"
	"softcache/internal/loopir"
	"softcache/internal/trace"
	"softcache/internal/tracegen"
	"softcache/internal/workloads"
)

// suite is every workload the figures trace at test scale: the nine paper
// benchmarks and the fig. 10a kernel variants.
func suite() []string {
	return append(workloads.Benchmarks(), workloads.Kernels()...)
}

// TestRecordsSizedExactly: the counting pass sizes Records to the trace it
// generates, so no workload pays for append growth or leaves slack.
func TestRecordsSizedExactly(t *testing.T) {
	for _, name := range suite() {
		tr, err := workloads.Trace(name, workloads.ScaleTest, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Records) != cap(tr.Records) {
			t.Errorf("%s: len %d, cap %d", name, len(tr.Records), cap(tr.Records))
		}
	}
}

// TestPrefetchBoundSlack: with compiler-inserted prefetches the count
// leaves no slack either: the counting pass drops out-of-range prefetches
// exactly as the generator does. The dropped count comes from a twin
// program whose prefetches all target element 0, so none of them is
// dropped; the test asserts some are, so the exactness is exercised.
func TestPrefetchBoundSlack(t *testing.T) {
	anyDropped := false
	prefetchProgram := func(name string, distance int) *loopir.Program {
		p, err := workloads.BuildProgram(name, workloads.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := locality.InsertPrefetches(p, distance); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, name := range workloads.Benchmarks() {
		for _, d := range []int{2, 4, 8} {
			tr, err := tracegen.Generate(prefetchProgram(name, d), tracegen.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			twin := prefetchProgram(name, d)
			prefetchElementZero(twin.Body)
			all, err := tracegen.Generate(twin, tracegen.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			dropped := all.Len() - tr.Len()
			anyDropped = anyDropped || dropped > 0
			if slack := cap(tr.Records) - tr.Len(); slack != 0 {
				t.Errorf("%s d=%d: cap-len = %d with %d dropped prefetches, want 0", name, d, slack, dropped)
			}
			if cap(all.Records) != all.Len() {
				t.Errorf("%s d=%d without drops: len %d, cap %d", name, d, all.Len(), cap(all.Records))
			}
		}
	}
	if !anyDropped {
		t.Error("no prefetch was dropped: the test no longer exercises the count's drop rule")
	}
}

// prefetchElementZero points every prefetch in body at element 0 of its
// array, which is always in range.
func prefetchElementZero(body []loopir.Stmt) {
	for _, st := range body {
		switch s := st.(type) {
		case *loopir.Loop:
			prefetchElementZero(s.Body)
		case *loopir.Prefetch:
			for i := range s.Index {
				s.Index[i] = loopir.C(0)
			}
		}
	}
}

// TestGenerateAllocatesRecordsOnce: the bytes Generate allocates are the
// records themselves plus a small constant for analysis and compilation.
// Growing Records by append would add roughly another trace's worth.
func TestGenerateAllocatesRecordsOnce(t *testing.T) {
	const overhead = 64 << 10
	recordSize := uint64(unsafe.Sizeof(trace.Record{}))
	for _, name := range suite() {
		p, err := workloads.BuildProgram(name, workloads.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := tracegen.Generate(p, tracegen.Options{Seed: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		if limit := uint64(tr.Len())*recordSize + overhead; alloc > limit {
			t.Errorf("%s: Generate allocated %d bytes for %d records, want at most %d", name, alloc, tr.Len(), limit)
		}
	}
}
