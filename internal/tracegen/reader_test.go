package tracegen_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"softcache/internal/core"
	"softcache/internal/lang"
	"softcache/internal/locality"
	"softcache/internal/loopir"
	"softcache/internal/timing"
	"softcache/internal/trace"
	"softcache/internal/tracegen"
	"softcache/internal/workloads"
)

// variant is one program and gap model the figures generate a trace from.
type variant struct {
	name  string
	build func() (*loopir.Program, error)
	gaps  *timing.GapModel
}

// figureVariants lists every trace the figure pipeline generates at test
// scale: the named workloads, the blocked matrix-vector block sizes
// (11a), the blocked matrix-matrix leading dimensions with and without
// copying (11b), the compiler-inserted prefetch distances (12sw) and the
// constant issue gaps (issue).
func figureVariants() []variant {
	var vs []variant
	for _, name := range suite() {
		vs = append(vs, variant{name: name, build: func() (*loopir.Program, error) {
			return workloads.BuildProgram(name, workloads.ScaleTest)
		}})
	}
	for _, b := range []int{10, 20, 40, 50, 100, 200} {
		vs = append(vs, variant{name: fmt.Sprintf("BlockedMV/b=%d", b), build: func() (*loopir.Program, error) {
			return workloads.BlockedMV(workloads.ScaleTest, b)
		}})
	}
	for ld := 116; ld <= 126; ld++ {
		for _, copying := range []bool{false, true} {
			vs = append(vs, variant{name: fmt.Sprintf("BlockedMM/ld=%d/copy=%v", ld, copying), build: func() (*loopir.Program, error) {
				return workloads.BlockedMM(workloads.ScaleTest, ld, copying)
			}})
		}
	}
	for _, name := range workloads.Benchmarks() {
		for _, d := range []int{2, 4, 8} {
			vs = append(vs, variant{name: fmt.Sprintf("%s/swpf=%d", name, d), build: func() (*loopir.Program, error) {
				p, err := workloads.BuildProgram(name, workloads.ScaleTest)
				if err != nil {
					return nil, err
				}
				_, err = locality.InsertPrefetches(p, d)
				return p, err
			}})
		}
		for _, g := range []int{1, 2, 4, 8} {
			vs = append(vs, variant{name: fmt.Sprintf("%s/gap=%d", name, g), gaps: timing.Constant(g), build: func() (*loopir.Program, error) {
				return workloads.BuildProgram(name, workloads.ScaleTest)
			}})
		}
	}
	return vs
}

// readAll drains r in batches of size records, returning every record in
// order and the error that ended the stream (nil at io.EOF).
func readAll(r trace.BatchReader, size int) ([]trace.Record, error) {
	var out []trace.Record
	dst := make([]trace.Record, size)
	for {
		n, err := r.ReadBatch(dst)
		out = append(out, dst[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// TestReaderMatchesGenerate: for every trace the figures use, the Reader's
// concatenated batches are Generate's records, and Len is their count.
func TestReaderMatchesGenerate(t *testing.T) {
	for k, v := range figureVariants() {
		p, err := v.build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := tracegen.Generate(p, tracegen.Options{Seed: 1, Gaps: v.gaps})
		if err != nil {
			t.Fatal(err)
		}
		if p, err = v.build(); err != nil {
			t.Fatal(err)
		}
		r, err := tracegen.NewReader(p, tracegen.Options{Seed: 1, Gaps: v.gaps})
		if err != nil {
			t.Fatal(err)
		}
		if r.Name() != want.Name {
			t.Errorf("%s: Name %q, want %q", v.name, r.Name(), want.Name)
		}
		if r.Len() != want.Len() {
			t.Errorf("%s: Len %d, want the %d records Generate emits", v.name, r.Len(), want.Len())
		}
		// Alternate the pooled batch size with an odd one, so batch
		// boundaries fall everywhere in the loop nests.
		size := trace.BatchSize
		if k%2 == 1 {
			size = 777
		}
		got, err := readAll(r, size)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if len(got) != want.Len() {
			t.Fatalf("%s: streamed %d records, want %d", v.name, len(got), want.Len())
		}
		for i := range got {
			if got[i] != want.Records[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", v.name, i, got[i], want.Records[i])
			}
		}
		if n, err := r.ReadBatch(make([]trace.Record, 8)); n != 0 || err != io.EOF {
			t.Errorf("%s: after the last batch ReadBatch = %d, %v; want 0, io.EOF", v.name, n, err)
		}
		r.Close()
	}
}

// TestReaderMaxRecords: the streamed trace stops at the same record, with
// the same error, as Generate.
func TestReaderMaxRecords(t *testing.T) {
	const max = 5000
	build := func() *loopir.Program {
		p, err := workloads.BuildProgram("MV", workloads.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	opts := tracegen.Options{Seed: 1, MaxRecords: max}
	_, genErr := tracegen.Generate(build(), opts)
	if genErr == nil {
		t.Fatal("Generate must fail past MaxRecords")
	}
	full, err := tracegen.Generate(build(), tracegen.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := tracegen.NewReader(build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != -1 {
		t.Errorf("Len = %d past MaxRecords, want -1", r.Len())
	}
	got, err := readAll(r, 1000)
	if err == nil || err.Error() != genErr.Error() {
		t.Fatalf("Reader error %v, want Generate's %v", err, genErr)
	}
	if len(got) != max {
		t.Fatalf("Reader delivered %d records before failing, want %d", len(got), max)
	}
	for i := range got {
		if got[i] != full.Records[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], full.Records[i])
		}
	}
	if n, again := r.ReadBatch(make([]trace.Record, 8)); n != 0 || again != err {
		t.Errorf("after the failure ReadBatch = %d, %v; want 0 and the same error", n, again)
	}
}

// cancelAfterFirst cancels its consumer's context once the first batch
// has been read, the way a timeout or an interrupt lands mid-simulation.
type cancelAfterFirst struct {
	trace.BatchReader
	cancel context.CancelFunc
}

func (c cancelAfterFirst) ReadBatch(dst []trace.Record) (int, error) {
	defer c.cancel()
	return c.BatchReader.ReadBatch(dst)
}

// TestReaderStopsEarlyWithoutLeaks: a consumer that stops before the end,
// because its context was canceled or because it stopped reading, ends
// the generator goroutine by closing the Reader.
func TestReaderStopsEarlyWithoutLeaks(t *testing.T) {
	open := func() *tracegen.Reader {
		p, err := workloads.BuildProgram("MV", workloads.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		r, err := tracegen.NewReader(p, tracegen.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	r := open()
	_, err := core.Run(ctx, core.Job{Configs: []core.Config{core.Standard(), core.Soft()}}, cancelAfterFirst{r, cancel})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("core.Run on a canceled context: err = %v, want context.Canceled", err)
	}
	r.Close()

	r = open()
	if n, err := r.ReadBatch(make([]trace.Record, trace.BatchSize)); n != trace.BatchSize || err != nil {
		t.Fatalf("first batch: %d, %v", n, err)
	}
	r.Close()
	r.Close() // idempotent
	if n, err := r.ReadBatch(make([]trace.Record, 8)); n != 0 || err == nil {
		t.Errorf("ReadBatch after Close = %d, %v; want an error", n, err)
	}

	open().Close() // never read: no goroutine was started

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after the readers were closed", before, after)
	}
}

// TestReadAllExactLen: materialising a Reader allocates the counting
// pass's exact length in one step, even past the preallocation cap
// trace.ReadAll keeps for decoded headers.
func TestReadAllExactLen(t *testing.T) {
	const n = 1<<20 + 5000
	p, err := lang.Parse(fmt.Sprintf("program big\narray A(%d)\ndo i = 0, %d\nload A(i)\nend\n", n, n-1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := tracegen.NewReader(p, tracegen.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := trace.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != n || cap(got.Records) != n {
		t.Fatalf("ReadAll: %d records in a capacity of %d, want %d in %d", len(got.Records), cap(got.Records), n, n)
	}
}
