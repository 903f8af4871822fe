// Package harness is the worker pool underneath softcache-bench,
// softcache-sweep and softcache-perf. It executes independent units of
// work (figure regenerations, sweep rows, perf units) on a bounded pool,
// each under a context.Context with an optional per-unit timeout, and
// treats the simulation stack as untrusted:
//
//   - a panic inside a unit is recovered and converted into a structured
//     failed-run record (key, error, stack, reproduction metadata) instead
//     of crashing the process;
//   - cancellation (Ctrl-C, a deadline) stops scheduling new units and
//     reports the remaining units as canceled.
//
// Results are always returned in submission order regardless of worker
// count, so callers that render reports sequentially produce byte-identical
// output whether they ran with one worker or sixteen. Nothing a unit
// computes is persisted.
package harness

import (
	"context"
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
	// Key names the unit in failed-run records; keys must be unique
	// within one Run.
	Key string
	// Meta carries reproduction metadata (workload, config description,
	// seed, trace fingerprint). It is copied into failed-run records so a
	// crash report alone is enough to replay the unit deterministically.
	Meta map[string]string
	// Run computes the unit's value. It must honour ctx cancellation for
	// timeouts to take effect (see core.Run).
	Run func(ctx context.Context) (T, error)
}

// Status classifies the outcome of one unit.
type Status string

const (
	// StatusOK means the unit completed and its value is valid.
	StatusOK Status = "ok"
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
func (r Result[T]) OK() bool { return r.Status == StatusOK }

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
	// Log, when non-nil, receives the failed-run record of every unit
	// that did not produce a value. Report rendering stays with the
	// caller.
	Log io.Writer
}

// Summary aggregates the outcome counts of a Run.
type Summary struct {
	Total, OK, Failed, Panicked, TimedOut, Canceled int
}

// Failures returns how many units did not produce a value.
func (s Summary) Failures() int { return s.Failed + s.Panicked + s.TimedOut + s.Canceled }

func (s Summary) String() string {
	parts := []string{fmt.Sprintf("%d/%d ok", s.OK, s.Total)}
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
// in the results. Keys are built by the caller's code, so a duplicate key
// is a programming error and panics before any unit runs.
func Run[T any](ctx context.Context, units []Unit[T], opts Options) []Result[T] {
	seen := make(map[string]bool, len(units))
	for _, u := range units {
		if seen[u.Key] {
			panic(fmt.Sprintf("harness: duplicate unit key %q", u.Key))
		}
		seen[u.Key] = true
	}

	workers := min(max(opts.Workers, 1), max(len(units), 1))
	results := make([]Result[T], len(units))
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
				if opts.Log != nil && !results[idx].OK() {
					fmt.Fprintln(opts.Log, results[idx].FailureRecord())
				}
			}
		}()
	}
	for idx := range units {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	return results
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
