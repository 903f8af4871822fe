// Package metrics characterises traces the way the paper's figures 1 and 4
// do (reuse distances, vector lengths, tag fractions, issue-time
// distribution) and provides the table/chart rendering used by the
// benchmark harness.
package metrics

import (
	"softcache/internal/idtable"
	"softcache/internal/trace"
)

// ReuseBuckets are the fig. 1a x-axis categories: no reuse, 1–10²,
// 10²–10³, 10³–10⁴ and >10⁴ references.
var ReuseBuckets = []string{"no reuse", "1-1e2", "1e2-1e3", "1e3-1e4", ">1e4"}

// ReuseDistances computes the distribution of reuse distances, in number of
// intervening references, at the given granularity in bytes (the paper uses
// the data element, i.e. addresses; 8 matches double-precision elements).
// Each reference is classified by the distance *to its next use*: the final
// access to an address counts as "no reuse", mirroring fig. 1a where 0
// corresponds to data referenced only once.
func ReuseDistances(t *trace.Trace, granularity int) [5]float64 {
	if granularity <= 0 {
		granularity = 8
	}
	var ids idtable.Table
	var last []int // key id -> index of its previous access
	var counts [5]int
	n := len(t.Records)
	for i, r := range t.Records {
		id, fresh := ids.ID(r.Addr / uint64(granularity))
		if fresh {
			last = append(last, i)
			continue
		}
		counts[bucketReuse(i-last[id])]++
		last[id] = i
	}
	// Addresses never accessed again: one terminal "no reuse" entry each.
	counts[0] += ids.Len()
	var out [5]float64
	if n == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(n)
	}
	return out
}

func bucketReuse(d int) int {
	switch {
	case d <= 100:
		return 1
	case d <= 1000:
		return 2
	case d <= 10000:
		return 3
	default:
		return 4
	}
}

// VectorBuckets are the fig. 1b x-axis categories in bytes.
var VectorBuckets = []string{"<=32B", "33-64B", "65-128B", "129-256B", "257-512B", ">512B"}

// VectorParams mirror the paper's footnote 1: a vector sequence terminates
// when the instruction has been idle for more than MaxGap references or the
// stride exceeds MaxStride bytes.
type VectorParams struct {
	MaxGap    int // default 500 references
	MaxStride int // default 32 bytes
}

// VectorLengths computes the fig. 1b distribution: for every load/store
// instruction (RefID), accesses are grouped into vector sequences and each
// reference is attributed the byte length of the sequence it belongs to.
func VectorLengths(t *trace.Trace, p VectorParams) [6]float64 {
	if p.MaxGap == 0 {
		p.MaxGap = 500
	}
	if p.MaxStride == 0 {
		p.MaxStride = 32
	}
	type state struct {
		lastAddr  uint64
		lastIndex int
		start     uint64
		count     int // references in the current sequence
		active    bool
	}
	states := make(map[uint32]*state)
	var counts [6]int
	n := 0

	flush := func(s *state) {
		if !s.active || s.count == 0 {
			return
		}
		length := int(s.lastAddr-s.start) + 8 // span in bytes
		if s.lastAddr < s.start {
			length = int(s.start-s.lastAddr) + 8
		}
		counts[bucketVector(length)] += s.count
		n += s.count
		s.active = false
		s.count = 0
	}

	for i, r := range t.Records {
		s := states[r.RefID]
		if s == nil {
			s = &state{}
			states[r.RefID] = s
		}
		if s.active {
			stride := int64(r.Addr) - int64(s.lastAddr)
			if stride < 0 {
				stride = -stride
			}
			if i-s.lastIndex > p.MaxGap || stride > int64(p.MaxStride) {
				flush(s)
			}
		}
		if !s.active {
			s.active = true
			s.start = r.Addr
			s.count = 0
		}
		s.lastAddr = r.Addr
		s.lastIndex = i
		s.count++
	}
	for _, s := range states {
		flush(s)
	}

	var out [6]float64
	if n == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(n)
	}
	return out
}

func bucketVector(bytes int) int {
	switch {
	case bytes <= 32:
		return 0
	case bytes <= 64:
		return 1
	case bytes <= 128:
		return 2
	case bytes <= 256:
		return 3
	case bytes <= 512:
		return 4
	default:
		return 5
	}
}

// TagClasses are the fig. 4a categories in plot order.
var TagClasses = []string{"none", "spatial only", "temporal only", "temporal+spatial"}

// TagFractions returns the fig. 4a fractions in TagClasses order.
func TagFractions(t *trace.Trace) [4]float64 {
	c := t.CountTags()
	total := float64(c.Total())
	if total == 0 {
		return [4]float64{}
	}
	return [4]float64{
		float64(c.None) / total,
		float64(c.SpatialOnly) / total,
		float64(c.TemporalOnly) / total,
		float64(c.Both) / total,
	}
}

// GapBuckets are the fig. 4b categories (cycles between consecutive
// load/store instructions).
var GapBuckets = []string{"1", "2", "3", "4", "5", "6-10", "11-15", "16-20", ">20"}

// GapDistribution returns the fig. 4b distribution measured on a trace.
func GapDistribution(t *trace.Trace) [9]float64 {
	var counts [9]int
	n := 0
	for i, r := range t.Records {
		if i == 0 {
			continue
		}
		counts[bucketGap(int(r.Gap))]++
		n++
	}
	var out [9]float64
	if n == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(n)
	}
	return out
}

func bucketGap(g int) int {
	switch {
	case g <= 5:
		if g < 1 {
			g = 1
		}
		return g - 1
	case g <= 10:
		return 5
	case g <= 15:
		return 6
	case g <= 20:
		return 7
	default:
		return 8
	}
}
