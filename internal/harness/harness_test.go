package harness

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func intUnit(key string, v int) Unit[int] {
	return Unit[int]{Key: key, Run: func(context.Context) (int, error) { return v, nil }}
}

func TestRunPreservesSubmissionOrder(t *testing.T) {
	var units []Unit[int]
	for i := 0; i < 50; i++ {
		units = append(units, intUnit(fmt.Sprintf("u%d", i), i))
	}
	results, err := Run(context.Background(), units, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.OK() || r.Value != i {
			t.Fatalf("result %d = %+v, want value %d", i, r, i)
		}
	}
	s := Summarize(results)
	if s.OK != 50 || s.Failures() != 0 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestPanicContainment(t *testing.T) {
	units := []Unit[int]{
		intUnit("ok", 1),
		{
			Key:  "boom",
			Meta: map[string]string{"workload": "MV", "seed": "1"},
			Run:  func(context.Context) (int, error) { panic("state corrupted") },
		},
		intUnit("after", 2),
	}
	results, err := Run(context.Background(), units, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].OK() || !results[2].OK() {
		t.Fatal("healthy units must survive a sibling panic")
	}
	r := results[1]
	if r.Status != StatusPanic {
		t.Fatalf("status = %s, want panic", r.Status)
	}
	if r.Panic != "state corrupted" || !strings.Contains(r.Stack, "harness") {
		t.Fatalf("panic record incomplete: %+v", r)
	}
	rec := r.FailureRecord()
	for _, want := range []string{"boom", "panic", "workload=MV", "seed=1"} {
		if !strings.Contains(rec, want) {
			t.Fatalf("failure record missing %q:\n%s", want, rec)
		}
	}
}

func TestFailedUnitDoesNotStopOthers(t *testing.T) {
	units := []Unit[int]{
		{Key: "bad", Run: func(context.Context) (int, error) { return 0, errors.New("nope") }},
		intUnit("good", 7),
	}
	results, err := Run(context.Background(), units, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != StatusFailed || results[0].Err == nil {
		t.Fatalf("results[0] = %+v", results[0])
	}
	if !results[1].OK() || results[1].Value != 7 {
		t.Fatalf("results[1] = %+v", results[1])
	}
}

func TestTimeout(t *testing.T) {
	units := []Unit[int]{{
		Key: "slow",
		Run: func(ctx context.Context) (int, error) {
			<-ctx.Done()
			return 0, ctx.Err()
		},
	}}
	results, err := Run(context.Background(), units, Options{Timeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != StatusTimeout {
		t.Fatalf("status = %s, want timeout", results[0].Status)
	}
}

func TestCancellationSkipsPendingUnits(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var ran atomic.Int32
	units := []Unit[int]{
		{Key: "first", Run: func(c context.Context) (int, error) {
			close(started)
			<-c.Done()
			return 0, c.Err()
		}},
	}
	for i := 0; i < 20; i++ {
		i := i
		units = append(units, Unit[int]{Key: fmt.Sprintf("later%d", i), Run: func(context.Context) (int, error) {
			ran.Add(1)
			return i, nil
		}})
	}
	go func() {
		<-started
		cancel()
	}()
	results, err := Run(ctx, units, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != StatusCanceled {
		t.Fatalf("first = %s, want canceled", results[0].Status)
	}
	s := Summarize(results)
	if s.Canceled == 0 || int(ran.Load()) != s.OK {
		t.Fatalf("summary = %+v, ran = %d", s, ran.Load())
	}
}

func TestJournalAndResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "runs.jsonl")
	var firstRuns atomic.Int32
	mk := func(counter *atomic.Int32, failEven bool) []Unit[int] {
		var units []Unit[int]
		for i := 0; i < 10; i++ {
			i := i
			units = append(units, Unit[int]{
				Key: fmt.Sprintf("point%d", i),
				Run: func(context.Context) (int, error) {
					counter.Add(1)
					if failEven && i%2 == 0 {
						return 0, fmt.Errorf("transient failure %d", i)
					}
					return i * i, nil
				},
			})
		}
		return units
	}

	// First pass: even points fail, odd points succeed and are journaled.
	results, err := Run(context.Background(), mk(&firstRuns, true), Options{Workers: 3, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if s := Summarize(results); s.OK != 5 || s.Failed != 5 {
		t.Fatalf("first pass summary = %+v", s)
	}
	entries, err := readEntries(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 {
		t.Fatalf("journal entries = %d, want 10 (failures are journaled too)", len(entries))
	}

	// Second pass: odd points resume from the journal without re-running;
	// even points (previously failed) are retried and now succeed.
	var secondRuns atomic.Int32
	results, err = Run(context.Background(), mk(&secondRuns, false),
		Options{Workers: 3, JournalPath: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.OK() || r.Value != i*i {
			t.Fatalf("resumed result %d = %+v", i, r)
		}
		wantStatus := StatusResumed
		if i%2 == 0 {
			wantStatus = StatusOK
		}
		if r.Status != wantStatus {
			t.Fatalf("result %d status = %s, want %s", i, r.Status, wantStatus)
		}
	}
	if got := secondRuns.Load(); got != 5 {
		t.Fatalf("second pass executed %d units, want 5 (journaled runs must not recompute)", got)
	}
}

func TestResumeRequiresJournal(t *testing.T) {
	if _, err := Run(context.Background(), []Unit[int]{intUnit("a", 1)}, Options{Resume: true}); err == nil {
		t.Fatal("Resume without JournalPath must fail")
	}
}

func TestDuplicateKeysRejected(t *testing.T) {
	units := []Unit[int]{intUnit("same", 1), intUnit("same", 2)}
	if _, err := Run(context.Background(), units, Options{}); err == nil {
		t.Fatal("duplicate keys must fail")
	}
}

func TestCorruptJournalFailsLoad(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "runs.jsonl")
	if _, err := Run(context.Background(), []Unit[int]{intUnit("a", 1)}, Options{JournalPath: journal}); err != nil {
		t.Fatal(err)
	}
	// Append a broken line; resume must refuse rather than silently skip.
	if err := appendLine(journal, "{not json"); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), []Unit[int]{intUnit("a", 1)},
		Options{JournalPath: journal, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want corrupt-journal error naming line 2", err)
	}
}

// TestResumeByKeyOnly: the key is the only resume guard. A journaled value
// replays under its exact key, a different key re-runs, and a value that
// no longer decodes into the unit's type re-runs instead of resuming.
func TestResumeByKeyOnly(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "runs.jsonl")
	if _, err := Run(context.Background(), []Unit[int]{intUnit("k", 7)}, Options{JournalPath: journal}); err != nil {
		t.Fatal(err)
	}
	resume := Options{JournalPath: journal, Resume: true}

	results, err := Run(context.Background(), []Unit[int]{intUnit("k", 8), intUnit("k2", 9)}, resume)
	if err != nil {
		t.Fatal(err)
	}
	if r := results[0]; r.Status != StatusResumed || r.Value != 7 {
		t.Fatalf("same key: %s %d, want resumed 7", r.Status, r.Value)
	}
	if r := results[1]; r.Status != StatusOK || r.Value != 9 {
		t.Fatalf("new key: %s %d, want ok 9", r.Status, r.Value)
	}

	strUnit := Unit[string]{Key: "k", Run: func(context.Context) (string, error) { return "fresh", nil }}
	strs, err := Run(context.Background(), []Unit[string]{strUnit}, resume)
	if err != nil {
		t.Fatal(err)
	}
	if r := strs[0]; r.Status != StatusOK || r.Value != "fresh" {
		t.Fatalf("undecodable value: %s %q, want ok \"fresh\"", r.Status, r.Value)
	}
}
