// Package stackdist computes LRU stack distances (Mattson's algorithm) and
// the classic three-C miss classification — compulsory, capacity,
// conflict — that the paper's analysis leans on throughout ("a major share
// of cache misses removed are compulsory and capacity misses corresponding
// to vector accesses", §3.2).
//
// The stack distance of a reference is the number of *distinct* lines
// touched since the previous access to the same line. A fully-associative
// LRU cache of C lines misses exactly the references with distance >= C
// (plus first touches), so one pass yields the miss ratio of every cache
// size at once.
//
// Both passes here (Analyze and the reuse oracle, ObserveReuse) run on one
// dense engine: lines (and, for the oracle, words) get int32 ids in order
// of first touch from an idtable.Table, so per-line and per-word state
// lives in slices, and distinct-line counts come from one int32 Fenwick
// tree over access times, sized to the trace: O(log n) a query.
package stackdist

import (
	"math"

	"softcache/internal/idtable"
	"softcache/internal/trace"
)

// fenwick is a Fenwick tree over access times 1..n, holding a 1 at the
// time of each line's latest access, so a prefix sum counts the lines last
// touched by then.
type fenwick []int32

func newFenwick(n int) fenwick { return make(fenwick, n+1) }

func (f fenwick) add(i int32, delta int32) {
	for ; int(i) < len(f); i += i & -i {
		f[i] += delta
	}
}

func (f fenwick) sum(i int32) int {
	s := int32(0)
	for ; i > 0; i -= i & -i {
		s += f[i]
	}
	return int(s)
}

// Profile is the result of a full-trace stack-distance pass at line
// granularity.
type Profile struct {
	// Histogram[d] counts references with stack distance exactly d, for
	// d < len(Histogram)-1; the last bucket aggregates larger distances.
	Histogram []uint64
	// Compulsory counts first touches.
	Compulsory uint64
	// References is the number of accesses profiled.
	References uint64
}

// Analyze runs Mattson's algorithm over the trace at the given line size.
// maxTracked bounds the histogram's resolution (distances beyond it land
// in the overflow bucket); it should exceed the largest cache size of
// interest in lines.
func Analyze(t *trace.Trace, lineSize, maxTracked int) Profile {
	if lineSize <= 0 {
		lineSize = 32
	}
	if maxTracked <= 0 {
		maxTracked = 1 << 14
	}
	if len(t.Records) >= math.MaxInt32 {
		panic("stackdist: trace too long for int32 times")
	}
	p := Profile{Histogram: make([]uint64, maxTracked+1)}
	// One pass needs only line ids, assigned on first touch: the table is
	// asked once per reference, and per-line state lives in a slice.
	var ids idtable.Table
	var last []int32 // line id -> time of latest access
	tree := newFenwick(len(t.Records))
	now := int32(0)
	for _, r := range t.Records {
		if r.SoftwarePrefetch {
			continue
		}
		now++
		p.References++
		l, fresh := ids.ID(r.Addr / uint64(lineSize))
		if fresh {
			last = append(last, now)
			p.Compulsory++
			tree.add(now, 1)
			continue
		}
		// Distinct lines touched in (last[l], now): one marker each after
		// last[l], out of one marker per line seen so far.
		dist := len(last) - tree.sum(last[l])
		if dist > maxTracked {
			dist = maxTracked
		}
		p.Histogram[dist]++
		tree.add(last[l], -1)
		tree.add(now, 1)
		last[l] = now
	}
	return p
}

// FullyAssociativeMisses returns how many references miss in a
// fully-associative LRU cache of the given capacity in lines: first
// touches plus references whose distance is >= capacity.
func (p Profile) FullyAssociativeMisses(capacityLines int) uint64 {
	misses := p.Compulsory
	if capacityLines < 0 {
		capacityLines = 0
	}
	for d := capacityLines; d < len(p.Histogram); d++ {
		misses += p.Histogram[d]
	}
	return misses
}

// MissRatio returns the fully-associative LRU miss ratio at the capacity.
func (p Profile) MissRatio(capacityLines int) float64 {
	if p.References == 0 {
		return 0
	}
	return float64(p.FullyAssociativeMisses(capacityLines)) / float64(p.References)
}

// Classification is the three-C decomposition of an observed miss count.
type Classification struct {
	Compulsory uint64
	Capacity   uint64
	Conflict   uint64
}

// Total returns the sum of the three classes.
func (c Classification) Total() uint64 { return c.Compulsory + c.Capacity + c.Conflict }

// Classify splits observedMisses (measured on a real cache of
// capacityLines lines) into the three Cs using the profile: compulsory =
// first touches, capacity = further fully-associative LRU misses at the
// same capacity, conflict = the remainder. Anomalies (an observed count
// below the fully-associative one, possible for adversarial patterns and
// non-LRU effects) clamp conflict at zero.
func (p Profile) Classify(capacityLines int, observedMisses uint64) Classification {
	c := Classification{Compulsory: p.Compulsory}
	c.Capacity = p.FullyAssociativeMisses(capacityLines) - p.Compulsory
	if fa := c.Compulsory + c.Capacity; observedMisses > fa {
		c.Conflict = observedMisses - fa
	}
	return c
}
