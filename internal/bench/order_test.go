package bench

import (
	"cmp"
	"slices"
	"sync"
	"testing"
	"time"

	"softcache/internal/timing"
	"softcache/internal/trace"
	"softcache/internal/tracegen"
	"softcache/internal/workloads"
)

// TestGapReplayMatchesGenerator: the issue figure replays each named
// trace with its gaps rewritten instead of generating the trace again.
// For every benchmark and gap the replay must equal, record for record,
// the trace tracegen generates with that constant gap, across every batch
// boundary of the replay.
func TestGapReplayMatchesGenerator(t *testing.T) {
	for _, name := range workloads.Benchmarks() {
		base, err := sharedCtx.Trace(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, gap := range []int{1, 2, 4, 8} {
			p, err := workloads.BuildProgram(name, sharedCtx.Scale)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tracegen.Generate(p, tracegen.Options{Seed: sharedCtx.Seed, Gaps: timing.Constant(gap)})
			if err != nil {
				t.Fatal(err)
			}
			got, err := trace.ReadAll(&gapReader{BatchReader: base.Reader(), gap: uint8(gap)})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Records) != len(want.Records) {
				t.Fatalf("%s gap=%d: replay has %d records, generator %d", name, gap, len(got.Records), len(want.Records))
			}
			for i := range want.Records {
				if got.Records[i] != want.Records[i] {
					t.Fatalf("%s gap=%d: record %d replays as %v, generator gives %v", name, gap, i, got.Records[i], want.Records[i])
				}
			}
		}
	}
}

// TestWorkloadRowsStartLongestFirst: rows over named workloads are handed
// out longest trace first, whether the lengths come from tracegen's
// counting pass (a fresh context) or from the traces the context holds.
// On one token the rows start in descending record count, Slalom's first
// at test scale. On two, rows that wait for Slalom's row to start must
// all finish, which they do only if Slalom's row is one of the first two
// claimed: otherwise both tokens sit in rows waiting for it. Rows with no
// workload keep index order.
func TestWorkloadRowsStartLongestFirst(t *testing.T) {
	names := workloads.Benchmarks()
	lens := map[string]int{}
	for _, name := range names {
		tr, err := sharedCtx.Trace(name)
		if err != nil {
			t.Fatal(err)
		}
		lens[name] = tr.Len()
	}
	want := slices.Clone(names)
	slices.SortStableFunc(want, func(a, b string) int { return cmp.Compare(lens[b], lens[a]) })
	if want[0] != "Slalom" {
		t.Fatalf("longest test-scale benchmark is %s, want Slalom (lengths %v)", want[0], lens)
	}

	for _, built := range []bool{false, true} {
		fresh := func(tokens int) *Context {
			ctx := NewContext(workloads.ScaleTest, 1)
			ctx.budget = make(chan struct{}, tokens)
			if built {
				for _, name := range names {
					if _, err := ctx.Trace(name); err != nil {
						t.Fatal(err)
					}
				}
			}
			return ctx
		}

		var started []string
		err := fresh(1).eachWorkload(names, func(rc *Context, i int) error {
			started = append(started, names[i])
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(started, want) {
			t.Errorf("traces built=%v, one token: rows started %v, want %v", built, started, want)
		}

		slalomStarted := make(chan struct{})
		var once sync.Once
		err = fresh(2).eachWorkload(names, func(rc *Context, i int) error {
			if names[i] == "Slalom" {
				once.Do(func() { close(slalomStarted) })
				return nil
			}
			select {
			case <-slalomStarted:
				return nil
			case <-time.After(10 * time.Second):
				t.Errorf("traces built=%v, two tokens: row %s waited 10 s for Slalom's row to start", built, names[i])
				once.Do(func() { close(slalomStarted) })
				return nil
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	ctx := NewContext(workloads.ScaleTest, 1)
	ctx.budget = make(chan struct{}, 1)
	var order []int
	if err := ctx.each(len(names), func(rc *Context, i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, row := range order {
		if row != i {
			t.Fatalf("each without workloads started rows %v, want index order", order)
		}
	}
}
