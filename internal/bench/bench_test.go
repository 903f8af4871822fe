package bench

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"softcache/internal/core"
	"softcache/internal/harness"
	"softcache/internal/vet"
	"softcache/internal/workloads"
)

// sharedCtx caches test-scale traces across the experiment tests.
var sharedCtx = NewContext(workloads.ScaleTest, 1)

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{"1a", "1b", "3a", "3b", "3c", "4a", "4b", "6a", "6b",
		"7a", "7b", "8a", "8b", "9a", "9b", "10a", "10b", "11a", "11b", "12",
		"12sw", "related", "issue", "ablations", "summary", "tag-audit"}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("figure %s not registered", id)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown figure should error")
	}
}

// TestAllExperimentsRun executes every figure at test scale and checks the
// structural output (tables present, labelled, populated). Shape checks are
// validated at paper scale by the harness itself; here only the robust ones
// are asserted.
func TestAllExperimentsRun(t *testing.T) {
	// Shape checks that are sensitive to the tiny test-scale working sets
	// are excused here (they pass at paper scale; see EXPERIMENTS.md).
	scaleSensitive := map[string]bool{
		"8b": true, "9a": true, "11a": true, "11b": true,
		// At test scale the tiny working sets leave too few conflict and
		// capacity misses for the related-work comparisons to separate.
		"related": true,
		"summary": true,
	}
	for _, id := range IDs() {
		id := id
		t.Run("fig"+id, func(t *testing.T) {
			e, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			r, err := e.Run(sharedCtx)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Tables) == 0 {
				t.Fatal("experiment produced no tables")
			}
			for _, tbl := range r.Tables {
				if tbl.Rows() == 0 || len(tbl.Columns) == 0 {
					t.Fatalf("empty table in figure %s", id)
				}
			}
			if len(r.Checks) == 0 {
				t.Fatal("experiment declares no shape checks")
			}
			if !scaleSensitive[id] && !r.Passed() {
				for _, c := range r.Checks {
					if !c.Pass {
						t.Errorf("check failed at test scale: %s (%s)", c.Name, c.Detail)
					}
				}
			}
			out := r.String()
			if !strings.Contains(out, "Figure "+id) {
				t.Fatal("report rendering broken")
			}
		})
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll duplicates TestAllExperimentsRun work")
	}
	reports, err := RunAll(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(IDs()) {
		t.Fatalf("reports = %d", len(reports))
	}
}

func TestContextCachesTraces(t *testing.T) {
	ctx := NewContext(workloads.ScaleTest, 0) // seed 0 -> default
	if ctx.Seed != 1 {
		t.Fatal("zero seed must default to 1")
	}
	a, err := ctx.Trace("MV")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Trace("MV")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("trace must be cached (same pointer)")
	}
}

// TestIssueLeavesContextTracesIntact: issue replays the Context's traces
// through gapReader, which rewrites each record's gap. Each reads a
// resident trace in place, so the rewrite must stay in gapReader's own
// batch: every trace the Context holds fingerprints the same after the
// figure as before it.
func TestIssueLeavesContextTracesIntact(t *testing.T) {
	ctx := NewContext(workloads.ScaleTest, 1)
	before := map[string]uint64{}
	for _, name := range workloads.Benchmarks() {
		tr, err := ctx.Trace(name)
		if err != nil {
			t.Fatal(err)
		}
		before[name] = tr.Fingerprint()
	}
	e, err := Get("issue")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(ctx); err != nil {
		t.Fatal(err)
	}
	for name, fp := range before {
		tr, err := ctx.Trace(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Fingerprint(); got != fp {
			t.Errorf("%s: fingerprint %#x after issue, %#x before", name, got, fp)
		}
	}
}

// TestVariantFiguresHonourContext: the figures that generate their own
// variant traces (block size, leading dimension, prefetch distance), and
// issue, which replays the Context's traces with rewritten gaps, run them
// through the context, so a canceled context stops each of them with an
// error wrapping context.Canceled.
func TestVariantFiguresHonourContext(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := NewContext(workloads.ScaleTest, 1).WithContext(canceled)
	for _, id := range []string{"11a", "11b", "issue", "12sw"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("figure %s on a canceled context: err = %v, want context.Canceled", id, err)
		}
	}
}

// TestTraceCacheHoldsOnlyNamedWorkloads guards the figure pipeline's
// memory: after a full pass the cache holds exactly the named workload
// traces the figures share (the nine benchmarks and the fig. 10a kernels),
// and none of the single-use variants ("/" suffixed keys
// such as MV/gap=1) the sweeping figures generate.
func TestTraceCacheHoldsOnlyNamedWorkloads(t *testing.T) {
	ctx := NewContext(workloads.ScaleTest, 1)
	if _, err := RunAll(ctx); err != nil {
		t.Fatal(err)
	}
	ctx.traces.mu.Lock()
	defer ctx.traces.mu.Unlock()
	named := append(workloads.Benchmarks(), workloads.Kernels()...)
	for _, name := range named {
		if _, ok := ctx.traces.m[name]; !ok {
			t.Errorf("trace cache lacks %s", name)
		}
	}
	if len(ctx.traces.m) != len(named) {
		for key := range ctx.traces.m {
			t.Logf("cached: %s", key)
		}
		t.Errorf("trace cache holds %d traces, want the %d named workloads", len(ctx.traces.m), len(named))
	}
	for key := range ctx.traces.m {
		if strings.Contains(key, "/") {
			t.Errorf("trace cache holds variant %q", key)
		}
	}
}

func TestColumnHelpers(t *testing.T) {
	tbl, err := amatTable(sharedCtx, "t", []string{"MV"}, fourConfigs(), amat)
	if err != nil {
		t.Fatal(err)
	}
	if wins, rows := columnWins(tbl, 3, 0, 1e-9); rows != 1 || wins != 1 {
		t.Fatalf("columnWins = %d/%d", wins, rows)
	}
	if g := columnGeomean(tbl, 0); g <= 0 {
		t.Fatalf("geomean = %v", g)
	}
}

// TestRowsShareOneWorkerBudget drives several experiments at once on one
// shared Context, the way softcache-bench does through the
// harness, with rows that nest each. Rows in flight never exceed
// GOMAXPROCS, the budget is actually used, and at GOMAXPROCS=1 the nested
// callers still finish: they run their rows themselves instead of waiting
// for a token their own goroutine holds.
func TestRowsShareOneWorkerBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		ctx := NewContext(workloads.ScaleTest, 1)
		var inFlight, peak atomic.Int64
		work := func(rc *Context, name string) error {
			n := inFlight.Add(1)
			defer inFlight.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			for _, cfg := range []core.Config{core.Standard(), core.Soft()} {
				if _, err := rc.Simulate(name, cfg); err != nil {
					return err
				}
			}
			return nil
		}
		names := workloads.Benchmarks()
		row := func(rc *Context, i int) error {
			if err := work(rc, names[i%len(names)]); err != nil {
				return err
			}
			if i%3 != 0 {
				return nil
			}
			return rc.each(3, func(rc *Context, j int) error { return work(rc, names[j]) })
		}
		var units []harness.Unit[int]
		for u := 0; u < 6; u++ {
			units = append(units, harness.Unit[int]{
				Key: fmt.Sprint("experiment-", u),
				Run: func(runCtx context.Context) (int, error) {
					return 0, ctx.WithContext(runCtx).each(8, row)
				},
			})
		}
		finished := make(chan []harness.Result[int])
		go func() {
			finished <- harness.Run(context.Background(), units, harness.Options{Workers: len(units)})
		}()
		select {
		case results := <-finished:
			for _, r := range results {
				if !r.OK() {
					t.Errorf("GOMAXPROCS=%d: %s", procs, r.FailureRecord())
				}
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("GOMAXPROCS=%d: experiments deadlocked on the worker budget", procs)
		}
		if p := peak.Load(); p > int64(procs) {
			t.Errorf("GOMAXPROCS=%d: %d rows in flight", procs, p)
		} else if procs > 1 && p < 2 {
			t.Errorf("GOMAXPROCS=%d: rows never ran in parallel (peak %d)", procs, p)
		}
	}
}

// TestFiguresFinishOnOneWorker runs the figures with the most rows
// concurrently, as softcache-bench does, on a budget of one
// worker: they must finish, with the tables a sequential run produces.
func TestFiguresFinishOnOneWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := NewContext(workloads.ScaleTest, 1)
	ids := []string{"11b", "12sw", "issue", "10a", "summary"}
	var units []harness.Unit[*Report]
	for _, id := range ids {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, harness.Unit[*Report]{
			Key: id,
			Run: func(runCtx context.Context) (*Report, error) { return e.Run(ctx.WithContext(runCtx)) },
		})
	}
	finished := make(chan []harness.Result[*Report])
	go func() {
		finished <- harness.Run(context.Background(), units, harness.Options{Workers: len(units)})
	}()
	select {
	case results := <-finished:
		for i, r := range results {
			if !r.OK() {
				t.Fatalf("%s", r.FailureRecord())
			}
			e, _ := Get(ids[i])
			want, err := e.Run(sharedCtx)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Value.String(); got != want.String() {
				t.Errorf("figure %s on one worker differs from the shared run:\n%s\nwant:\n%s", ids[i], got, want)
			}
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("figures deadlocked on a one-worker budget")
	}
}

// TestEachReportsLowestFailingRow: whichever row fails first in time,
// each returns the error of the lowest failing row, and a row's panic is
// re-raised on the caller's goroutine.
func TestEachReportsLowestFailingRow(t *testing.T) {
	ctx := NewContext(workloads.ScaleTest, 1)
	err := ctx.each(16, func(rc *Context, i int) error {
		switch i {
		case 3:
			time.Sleep(20 * time.Millisecond)
			return errors.New("row 3")
		case 5:
			return errors.New("row 5")
		}
		return nil
	})
	if err == nil || err.Error() != "row 3" {
		t.Fatalf("each = %v, want row 3's error", err)
	}
	defer func() {
		if p := recover(); p != "row 2 panicked" {
			t.Fatalf("recovered %v, want row 2's panic", p)
		}
	}()
	_ = ctx.each(4, func(rc *Context, i int) error {
		if i == 2 {
			panic("row 2 panicked")
		}
		return nil
	})
	t.Fatal("each returned instead of re-raising the row's panic")
}

// TestTagAuditMatchesVet: the tag-audit figure replays the trace the
// context holds, while softcache-vet's tagaudit pass generates its own.
// For every benchmark the two reports must be identical, which pins the
// two traces to the same addresses, reference ids, prefetch flags and
// order — everything the audit reads (the seed moves only issue gaps).
func TestTagAuditMatchesVet(t *testing.T) {
	for _, name := range workloads.Benchmarks() {
		fromCtx, err := sharedCtx.audit(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := workloads.BuildProgram(name, workloads.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		res, err := vet.Run(p, vet.Options{Audit: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fromCtx, res.Audit) {
			t.Errorf("%s: audit of the context's trace differs from vet's\ncontext: %+v\nvet:     %+v",
				name, fromCtx, res.Audit)
		}
	}
}
