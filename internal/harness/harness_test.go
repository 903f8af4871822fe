package harness

import (
	"context"
	"errors"
	"fmt"
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
	results := Run(context.Background(), units, Options{Workers: 8})
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
	results := Run(context.Background(), units, Options{Workers: 2})
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
	results := Run(context.Background(), units, Options{Workers: 1})
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
	results := Run(context.Background(), units, Options{Timeout: 10 * time.Millisecond})
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
	results := Run(ctx, units, Options{Workers: 1})
	if results[0].Status != StatusCanceled {
		t.Fatalf("first = %s, want canceled", results[0].Status)
	}
	s := Summarize(results)
	if s.Canceled == 0 || int(ran.Load()) != s.OK {
		t.Fatalf("summary = %+v, ran = %d", s, ran.Load())
	}
}

func TestDuplicateKeysRejected(t *testing.T) {
	units := []Unit[int]{intUnit("same", 1), intUnit("same", 2)}
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), `duplicate unit key "same"`) {
			t.Fatalf("recovered %v, want a duplicate-key panic", p)
		}
	}()
	Run(context.Background(), units, Options{})
}
