package stackdist

import (
	"testing"

	"softcache/internal/timing"
	"softcache/internal/trace"
)

func mkReuseTrace(addrs ...uint64) *trace.Trace {
	t := &trace.Trace{Name: "oracle"}
	for _, a := range addrs {
		t.Append(trace.Record{Addr: a, Size: 8})
	}
	return t
}

// TestObserveReuseSymmetric: the oracle sees reuse in both directions —
// the first touch of a reused word is credited (forward observation) just
// like the second (backward observation).
func TestObserveReuseSymmetric(t *testing.T) {
	// Word 0 and word 8 share the 32-byte line 0; word 0 recurs.
	r := ObserveReuse(mkReuseTrace(0, 8, 0), 32, 0)
	want := []Reuse{
		{Temporal: true, Spatial: true},  // word 0: reused at [2], neighbour 8 at [1]
		{Temporal: false, Spatial: true}, // word 8: never reused, neighbours both ways
		{Temporal: true, Spatial: true},  // word 0 again
	}
	for i, got := range r {
		if got != want[i] {
			t.Errorf("record %d: observed %+v, want %+v", i, got, want[i])
		}
	}
}

// TestObserveReuseDistinctWords: same-word repetition alone is temporal
// only — spatial requires a *different* word of the line.
func TestObserveReuseDistinctWords(t *testing.T) {
	r := ObserveReuse(mkReuseTrace(64, 64, 64), 32, 0)
	for i, got := range r {
		if !got.Temporal || got.Spatial {
			t.Errorf("record %d: observed %+v, want temporal-only", i, got)
		}
	}
}

// TestObserveReuseWindow: reuse further apart than the window (in distinct
// lines touched) does not count.
func TestObserveReuseWindow(t *testing.T) {
	var addrs []uint64
	addrs = append(addrs, 0)
	for i := 1; i <= 50; i++ {
		addrs = append(addrs, uint64(i*64)) // 50 distinct other lines
	}
	addrs = append(addrs, 0)
	r := ObserveReuse(mkReuseTrace(addrs...), 32, 10)
	if r[0].Temporal || r[len(r)-1].Temporal {
		t.Errorf("reuse across 50 lines observed despite window 10: first=%+v last=%+v",
			r[0], r[len(r)-1])
	}
	wide := ObserveReuse(mkReuseTrace(addrs...), 32, 100)
	if !wide[0].Temporal || !wide[len(wide)-1].Temporal {
		t.Errorf("reuse not observed with window 100: first=%+v last=%+v",
			wide[0], wide[len(wide)-1])
	}
}

// TestObserveReuseSkipsPrefetches: software prefetches are hints, not
// references — they neither observe nor provide reuse.
func TestObserveReuseSkipsPrefetches(t *testing.T) {
	tr := &trace.Trace{Name: "pf"}
	tr.Append(trace.Record{Addr: 0, Size: 8, SoftwarePrefetch: true})
	tr.Append(trace.Record{Addr: 0, Size: 8})
	r := ObserveReuse(tr, 32, 0)
	if r[0] != (Reuse{}) {
		t.Errorf("prefetch record observed reuse: %+v", r[0])
	}
	if r[1].Temporal {
		t.Errorf("prefetch counted as a providing touch: %+v", r[1])
	}
}

// naiveReuse is the oracle by brute force, O(n²): for each reference it
// walks outwards in one direction, collecting the lines touched in
// between in a set, until the set outgrows the window.
func naiveReuse(tr *trace.Trace, lineBytes, window int) []Reuse {
	out := make([]Reuse, len(tr.Records))
	look := func(i, dir int) Reuse {
		var r Reuse
		me := tr.Records[i]
		between := map[uint64]bool{}
		for j := i + dir; j >= 0 && j < len(tr.Records) && len(between) <= window; j += dir {
			o := tr.Records[j]
			if o.SoftwarePrefetch {
				continue
			}
			if o.Addr == me.Addr {
				r.Temporal = true
			} else if o.Addr/uint64(lineBytes) == me.Addr/uint64(lineBytes) {
				r.Spatial = true
			}
			between[o.Addr/uint64(lineBytes)] = true
		}
		return r
	}
	for i, rec := range tr.Records {
		if rec.SoftwarePrefetch {
			continue
		}
		past, future := look(i, -1), look(i, 1)
		out[i] = Reuse{
			Temporal: past.Temporal || future.Temporal,
			Spatial:  past.Spatial || future.Spatial,
		}
	}
	return out
}

// TestObserveReuseMatchesNaive cross-checks the oracle against the brute
// force on random traces with software prefetches, over windows from 1 to
// past the distinct-line count: the engine keeps its Fenwick tree only
// while the trace has more distinct lines than the window, so both the
// tree and the tree-less path run. One larger trace takes the id tables
// through several doublings.
func TestObserveReuseMatchesNaive(t *testing.T) {
	// Past the id tables' starting size (256 slots): about 650 distinct
	// words over 200 lines, under windows that bind and one that does
	// not.
	rng := timing.NewRNG(99)
	big := randomTrace(rng, 1500, 200)
	for _, window := range []int{4, 50, 400} {
		got, want := ObserveReuse(big, 32, window), naiveReuse(big, 32, window)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("200 lines, window %d, record %d (%+v): observed %+v, naive %+v",
					window, i, big.Records[i], got[i], want[i])
			}
		}
	}
	for seed := uint64(1); seed <= 30; seed++ {
		rng := timing.NewRNG(seed)
		lines := 2 + rng.Intn(30)
		tr := randomTrace(rng, 300, lines)
		for window := 1; window <= lines+2; window++ {
			got, want := ObserveReuse(tr, 32, window), naiveReuse(tr, 32, window)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d, %d lines, window %d, record %d (%+v): observed %+v, naive %+v",
						seed, lines, window, i, tr.Records[i], got[i], want[i])
				}
			}
		}
	}
}
