package stackdist

import (
	"reflect"
	"testing"
	"testing/quick"

	"softcache/internal/timing"
	"softcache/internal/trace"
)

// TestAnalyzerBasic: A B C A A — the second A has distance 2 (B, C),
// the third 0; the three first touches are compulsory.
func TestAnalyzerBasic(t *testing.T) {
	p := Analyze(mkTrace(1, 2, 3, 1, 1), 32, 16)
	if p.Compulsory != 3 || p.References != 5 {
		t.Fatalf("profile = %+v", p)
	}
	if p.Histogram[2] != 1 || p.Histogram[0] != 1 {
		t.Fatalf("histogram = %v, want one distance 2 and one distance 0", p.Histogram[:4])
	}
}

// naiveProfile is Mattson's algorithm on an explicit LRU stack: the
// distance of a re-access is its line's depth below the top.
func naiveProfile(tr *trace.Trace, lineSize, maxTracked int) Profile {
	p := Profile{Histogram: make([]uint64, maxTracked+1)}
	var stack []uint64 // most recent last
	for _, r := range tr.Records {
		if r.SoftwarePrefetch {
			continue
		}
		line := r.Addr / uint64(lineSize)
		p.References++
		found := false
		for j := len(stack) - 1; j >= 0; j-- {
			if stack[j] == line {
				d := len(stack) - 1 - j
				if d > maxTracked {
					d = maxTracked
				}
				p.Histogram[d]++
				stack = append(stack[:j], stack[j+1:]...)
				found = true
				break
			}
		}
		if !found {
			p.Compulsory++
		}
		stack = append(stack, line)
	}
	return p
}

// randomTrace draws n records over lines lines of 4 words each (32-byte
// lines of 8-byte words), about one in eight a software prefetch.
func randomTrace(rng *timing.RNG, n, lines int) *trace.Trace {
	tr := &trace.Trace{Name: "random"}
	for i := 0; i < n; i++ {
		tr.Append(trace.Record{
			Addr:             uint64(rng.Intn(lines*4)) * 8,
			Size:             8,
			SoftwarePrefetch: rng.Intn(8) == 0,
		})
	}
	return tr
}

// TestAnalyzerMatchesNaive cross-checks Analyze against a brute-force LRU
// stack on random streams, with a histogram bound below the distinct-line
// count so the overflow bucket fills too. The second stream touches about
// 1100 distinct lines, so the line-id table grows past its starting size
// (256 slots) several times.
func TestAnalyzerMatchesNaive(t *testing.T) {
	for _, c := range []struct{ n, lines int }{{500, 40}, {4000, 1200}} {
		f := func(seed uint64) bool {
			rng := timing.NewRNG(seed)
			tr := randomTrace(rng, c.n, c.lines)
			for _, maxTracked := range []int{8, 64} {
				if !reflect.DeepEqual(Analyze(tr, 32, maxTracked), naiveProfile(tr, 32, maxTracked)) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatalf("%d records over %d lines: %v", c.n, c.lines, err)
		}
	}
}

func mkTrace(lines ...uint64) *trace.Trace {
	tr := &trace.Trace{Name: "t"}
	for _, l := range lines {
		tr.Append(trace.Record{Addr: l * 32, Size: 8})
	}
	return tr
}

func TestAnalyzeProfile(t *testing.T) {
	// A B A B C C: compulsory 3; distances: A=1, B=1, C=0.
	p := Analyze(mkTrace(1, 2, 1, 2, 3, 3), 32, 16)
	if p.Compulsory != 3 || p.References != 6 {
		t.Fatalf("profile = %+v", p)
	}
	if p.Histogram[1] != 2 || p.Histogram[0] != 1 {
		t.Fatalf("histogram = %v", p.Histogram[:4])
	}
	// Capacity 1: misses = compulsory + distances >= 1 = 3 + 2.
	if got := p.FullyAssociativeMisses(1); got != 5 {
		t.Fatalf("FA misses(1) = %d, want 5", got)
	}
	// Capacity 2: everything with distance < 2 hits: misses = 3.
	if got := p.FullyAssociativeMisses(2); got != 3 {
		t.Fatalf("FA misses(2) = %d, want 3", got)
	}
	if r := p.MissRatio(2); r != 0.5 {
		t.Fatalf("miss ratio = %v", r)
	}
}

func TestAnalyzeSkipsPrefetches(t *testing.T) {
	tr := mkTrace(1, 2)
	tr.Append(trace.Record{Addr: 96, Size: 8, SoftwarePrefetch: true})
	p := Analyze(tr, 32, 16)
	if p.References != 2 {
		t.Fatalf("prefetch records must not be profiled: %+v", p)
	}
}

func TestClassify(t *testing.T) {
	// Ping-pong between two lines that a 2-line FA cache holds easily:
	// the FA misses are the 2 first touches; a direct-mapped cache where
	// they conflict observes 10 misses -> 8 conflict misses.
	lines := []uint64{0, 32, 0, 32, 0, 32, 0, 32, 0, 32}
	p := Analyze(mkTrace(lines...), 32, 16)
	c := p.Classify(2, 10)
	if c.Compulsory != 2 || c.Capacity != 0 || c.Conflict != 8 {
		t.Fatalf("classification = %+v", c)
	}
	if c.Total() != 10 {
		t.Fatalf("total = %d", c.Total())
	}
	// Clamping: observed below fully-associative.
	c2 := p.Classify(1, 1)
	if c2.Conflict != 0 {
		t.Fatalf("conflict must clamp at 0: %+v", c2)
	}
}

func TestOverflowBucket(t *testing.T) {
	// 100 distinct lines then a re-access: distance 99 lands in the
	// overflow bucket when maxTracked is 10.
	var lines []uint64
	for i := uint64(0); i < 100; i++ {
		lines = append(lines, i)
	}
	lines = append(lines, 0)
	p := Analyze(mkTrace(lines...), 32, 10)
	if p.Histogram[10] != 1 {
		t.Fatalf("overflow bucket = %d", p.Histogram[10])
	}
	// The overflow reference must still count as a miss for any capacity
	// up to maxTracked.
	if got := p.FullyAssociativeMisses(10); got != 101 {
		t.Fatalf("FA misses = %d, want 101", got)
	}
}
