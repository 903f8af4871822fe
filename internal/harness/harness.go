// Package harness is the resilient parallel experiment runner underneath
// softcache-bench and softcache-sweep. It executes independent units of
// work (figure regenerations, sweep points, fault-injection cases) on a
// bounded worker pool, each under a context.Context with an optional
// per-run timeout, and treats the simulation stack as untrusted:
//
//   - a panic inside a unit is recovered and converted into a structured
//     failed-run record (key, error, stack, reproduction metadata) instead
//     of crashing the process;
//   - every completed unit is journaled to a JSONL checkpoint file, so an
//     interrupted run resumes without recomputing finished work;
//   - cancellation (Ctrl-C, a deadline) stops scheduling new units,
//     flushes the journal and reports the remaining units as canceled.
//
// Results are always returned in submission order regardless of worker
// count, so callers that render reports sequentially produce byte-identical
// output whether they ran with one worker or sixteen.
package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// Unit is one independent piece of work.
type Unit[T any] struct {
	// Key is the stable identity of the unit, used for journaling and
	// resume. Two units with the same key are assumed interchangeable, so
	// the key must encode everything the result depends on (figure id,
	// scale, seed, config, axis point...).
	Key string
	// Meta carries reproduction metadata (workload, config description,
	// seed, trace fingerprint). It is copied into failed-run records so a
	// crash report alone is enough to replay the unit deterministically.
	Meta map[string]string
	// Run computes the unit's value. It must honour ctx cancellation for
	// timeouts to take effect (see core.Run).
	Run func(ctx context.Context) (T, error)
	// Validate, when non-nil, vets a journal value before it is replayed
	// on resume. A non-nil error rejects the entry and the unit re-runs —
	// the structured analogue of an undecodable value. Fused units use it
	// to detect that the config group behind a key has changed shape since
	// the journal was written (see FusedUnit).
	Validate func(T) error
}

// Status classifies the outcome of one unit.
type Status string

const (
	// StatusOK means the unit completed and its value is valid.
	StatusOK Status = "ok"
	// StatusResumed means the value was replayed from the journal without
	// re-running the unit.
	StatusResumed Status = "resumed"
	// StatusFailed means Run returned an error.
	StatusFailed Status = "failed"
	// StatusPanic means Run panicked; the panic value and stack were
	// captured in the result.
	StatusPanic Status = "panic"
	// StatusTimeout means the per-unit timeout expired.
	StatusTimeout Status = "timeout"
	// StatusCanceled means the parent context was canceled before or while
	// the unit ran.
	StatusCanceled Status = "canceled"
)

// Result is the outcome of one unit, in submission order.
type Result[T any] struct {
	Key     string
	Status  Status
	Value   T
	Err     error
	Panic   string // panic value, when Status == StatusPanic
	Stack   string // goroutine stack at the panic site
	Meta    map[string]string
	Elapsed time.Duration
}

// OK reports whether the result carries a usable value.
func (r Result[T]) OK() bool { return r.Status == StatusOK || r.Status == StatusResumed }

// FailureRecord renders the structured failed-run record for stderr and
// logs: one line of summary plus the reproduction metadata, and the stack
// for panics.
func (r Result[T]) FailureRecord() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run %s: %s", r.Key, r.Status)
	switch r.Status {
	case StatusPanic:
		fmt.Fprintf(&b, ": panic: %s", r.Panic)
	case StatusFailed, StatusTimeout, StatusCanceled:
		if r.Err != nil {
			fmt.Fprintf(&b, ": %v", r.Err)
		}
	}
	if len(r.Meta) > 0 {
		keys := make([]string, 0, len(r.Meta))
		for k := range r.Meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("\n  reproduce:")
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, r.Meta[k])
		}
	}
	if r.Stack != "" {
		b.WriteString("\n")
		b.WriteString(indent(r.Stack, "  "))
	}
	return b.String()
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n")
}

// Options configures a Run.
type Options struct {
	// Workers is the pool size; values below 1 mean 1.
	Workers int
	// Timeout bounds each unit's execution; 0 disables the per-unit
	// deadline. Units must be context-aware for the bound to bite.
	Timeout time.Duration
	// JournalPath, when non-empty, appends one JSONL record per completed
	// unit (ok and failed alike) to this file.
	JournalPath string
	// Resume replays units whose key has an ok record in the journal
	// instead of re-running them. Requires JournalPath.
	Resume bool
	// Log, when non-nil, receives one-line progress notes (resumes,
	// failures). The matrix/report rendering stays with the caller.
	Log io.Writer
}

// Summary aggregates the outcome counts of a Run.
type Summary struct {
	Total, OK, Resumed, Failed, Panicked, TimedOut, Canceled int
}

// Failures returns how many units did not produce a value.
func (s Summary) Failures() int { return s.Failed + s.Panicked + s.TimedOut + s.Canceled }

func (s Summary) String() string {
	parts := []string{fmt.Sprintf("%d/%d ok", s.OK+s.Resumed, s.Total)}
	if s.Resumed > 0 {
		parts = append(parts, fmt.Sprintf("%d resumed", s.Resumed))
	}
	if s.Failed > 0 {
		parts = append(parts, fmt.Sprintf("%d failed", s.Failed))
	}
	if s.Panicked > 0 {
		parts = append(parts, fmt.Sprintf("%d panicked", s.Panicked))
	}
	if s.TimedOut > 0 {
		parts = append(parts, fmt.Sprintf("%d timed out", s.TimedOut))
	}
	if s.Canceled > 0 {
		parts = append(parts, fmt.Sprintf("%d canceled", s.Canceled))
	}
	return strings.Join(parts, ", ")
}

// Summarize tallies a result slice.
func Summarize[T any](results []Result[T]) Summary {
	s := Summary{Total: len(results)}
	for _, r := range results {
		switch r.Status {
		case StatusOK:
			s.OK++
		case StatusResumed:
			s.Resumed++
		case StatusFailed:
			s.Failed++
		case StatusPanic:
			s.Panicked++
		case StatusTimeout:
			s.TimedOut++
		case StatusCanceled:
			s.Canceled++
		}
	}
	return s
}

// Run executes the units on a worker pool and returns their results in
// submission order. Unit failures (errors, panics, timeouts) are reported
// in the results, not as the returned error, which is reserved for harness
// infrastructure failures (an unreadable or unwritable journal) and for
// duplicate unit keys.
func Run[T any](ctx context.Context, units []Unit[T], opts Options) ([]Result[T], error) {
	if opts.Resume && opts.JournalPath == "" {
		return nil, errors.New("harness: Resume requires JournalPath")
	}
	seen := make(map[string]bool, len(units))
	for _, u := range units {
		if seen[u.Key] {
			return nil, fmt.Errorf("harness: duplicate unit key %q", u.Key)
		}
		seen[u.Key] = true
	}

	var resumable map[string]json.RawMessage
	if opts.Resume {
		var err error
		resumable, err = loadJournal(opts.JournalPath)
		if err != nil {
			return nil, err
		}
	}
	var journal *journalWriter
	if opts.JournalPath != "" {
		var err error
		journal, err = openJournal(opts.JournalPath)
		if err != nil {
			return nil, err
		}
		defer journal.Close()
	}

	results := make([]Result[T], len(units))
	var pending []int
	for i, u := range units {
		if raw, ok := resumable[u.Key]; ok {
			var v T
			if err := json.Unmarshal(raw, &v); err == nil {
				if u.Validate != nil {
					if verr := validateJournalValue(u, v); verr != nil {
						if opts.Log != nil {
							fmt.Fprintf(opts.Log, "harness: journal value for %s rejected (%v), re-running\n", u.Key, verr)
						}
						pending = append(pending, i)
						continue
					}
				}
				results[i] = Result[T]{Key: u.Key, Status: StatusResumed, Value: v, Meta: u.Meta}
				if opts.Log != nil {
					fmt.Fprintf(opts.Log, "harness: resumed %s from journal\n", u.Key)
				}
				continue
			}
			// An undecodable journal value (format drift) falls through to
			// a normal re-run.
		}
		pending = append(pending, i)
	}

	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(pending) && len(pending) > 0 {
		workers = len(pending)
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				u := units[idx]
				if ctx.Err() != nil {
					results[idx] = Result[T]{Key: u.Key, Status: StatusCanceled, Err: ctx.Err(), Meta: u.Meta}
				} else {
					results[idx] = execute(ctx, u, opts.Timeout)
				}
				if journal != nil && results[idx].Status != StatusCanceled {
					journal.append(toEntry(results[idx]))
				}
				if opts.Log != nil && !results[idx].OK() {
					fmt.Fprintln(opts.Log, results[idx].FailureRecord())
				}
			}
		}()
	}
	for _, idx := range pending {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()

	if journal != nil {
		if err := journal.Close(); err != nil {
			return results, err
		}
	}
	return results, nil
}

// validateJournalValue runs u.Validate with the same panic containment
// execute gives u.Run. Journal bytes are external input — hand-edited,
// written by an older build, or corrupted — so a Validate that panics on a
// decoded value must reject it (forcing a clean re-run of the unit), not
// crash the whole resumed run.
func validateJournalValue[T any](u Unit[T], v T) (verr error) {
	defer func() {
		if p := recover(); p != nil {
			verr = fmt.Errorf("harness: Validate for %s panicked: %v", u.Key, p)
		}
	}()
	return u.Validate(v)
}

// execute runs one unit with panic containment and the per-unit deadline.
func execute[T any](ctx context.Context, u Unit[T], timeout time.Duration) (res Result[T]) {
	res.Key = u.Key
	res.Meta = u.Meta
	runCtx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	defer func() {
		res.Elapsed = time.Since(start)
		if p := recover(); p != nil {
			res.Status = StatusPanic
			res.Panic = fmt.Sprint(p)
			res.Stack = string(debug.Stack())
			res.Err = fmt.Errorf("harness: unit %s panicked: %v", u.Key, p)
		}
	}()
	v, err := u.Run(runCtx)
	if err != nil {
		res.Err = err
		switch {
		case runCtx.Err() == context.DeadlineExceeded && ctx.Err() == nil:
			res.Status = StatusTimeout
		case ctx.Err() != nil:
			res.Status = StatusCanceled
		default:
			res.Status = StatusFailed
		}
		return res
	}
	res.Status = StatusOK
	res.Value = v
	return res
}
