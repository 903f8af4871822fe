package cache

import "softcache/internal/mem"

// Stats accumulates per-simulation counters. All fields are raw counts; use
// the methods for the derived metrics the paper reports.
type Stats struct {
	// References is the number of trace records processed.
	References uint64
	// Reads / Writes split References by direction.
	Reads  uint64
	Writes uint64

	// MainHits are 1-cycle hits in the main cache.
	MainHits uint64
	// BounceBackHits are hits in the bounce-back/victim cache (3 cycles +
	// swap). PrefetchHits is the subset that hit on a prefetched line.
	BounceBackHits uint64
	PrefetchHits   uint64
	// BypassBufferHits are buffered-bypass hits.
	BypassBufferHits uint64
	// StreamBufferHits are demand misses served by a stream-buffer head
	// (related-work baseline); StreamBufferAllocations counts buffer
	// (re)assignments.
	StreamBufferHits        uint64
	StreamBufferAllocations uint64
	// ColumnSlowHits are column-associative hits in the alternate (slow)
	// location.
	ColumnSlowHits uint64
	// Misses are references serviced by memory (including plain-bypass
	// word fetches).
	Misses uint64

	// CostCycles is the summed access cost; AMAT = CostCycles/References.
	CostCycles uint64
	// LockStallCycles is the part of CostCycles caused by the cache still
	// being locked by a previous swap when the access arrived.
	LockStallCycles uint64

	// Swaps counts main/bounce-back exchanges on bounce-back hits.
	Swaps uint64
	// BouncedBack counts temporal lines re-injected into the main cache.
	BouncedBack uint64
	// BounceBackCanceled counts bounce-backs canceled because the target
	// line was part of the in-flight miss (§2.2 ping-pong avoidance).
	BounceBackCanceled uint64
	// BounceBackAborted counts bounce-backs abandoned because the write
	// buffer was full and the displaced main line was dirty.
	BounceBackAborted uint64
	// Invalidations counts main-cache lines invalidated by the
	// virtual-line/bounce-back coherence rule.
	Invalidations uint64
	// VirtualFills counts misses that triggered a multi-line virtual fill;
	// VirtualLinesFetched / VirtualLinesSkipped split the candidate lines
	// into fetched vs already-resident.
	VirtualFills        uint64
	VirtualLinesFetched uint64
	VirtualLinesSkipped uint64
	// PrefetchesIssued counts prefetch fetches; PrefetchDiscarded counts
	// prefetched lines evicted from the bounce-back cache untouched.
	PrefetchesIssued  uint64
	PrefetchDiscarded uint64
	// SoftwarePrefetches counts explicit prefetch instructions processed
	// (§4.4 extension). They are excluded from References.
	SoftwarePrefetches uint64
	// SubblockFills counts subblock refills under sub-block placement
	// (both tag-matching holes and full directory replacements).
	SubblockFills uint64
	// BypassMemFetches counts plain-bypass word fetches.
	BypassMemFetches uint64

	// TemporalBitSets counts temporal-bit transitions 0->1 on lines.
	TemporalBitSets uint64

	// Mem mirrors the memory-side counters at the end of the run.
	Mem mem.Stats
}

// AMAT returns the average memory access time in cycles.
func (s Stats) AMAT() float64 {
	if s.References == 0 {
		return 0
	}
	return float64(s.CostCycles) / float64(s.References)
}

// MissRatio returns misses per reference (bounce-back and bypass-buffer
// hits count as hits, matching the paper's hit repartition of fig. 6b).
func (s Stats) MissRatio() float64 {
	if s.References == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.References)
}

// MainHitFraction returns the share of all hits served by the main cache
// (fig. 6b's "repartition of cache hits").
func (s Stats) MainHitFraction() float64 {
	hits := s.MainHits + s.BounceBackHits + s.BypassBufferHits + s.StreamBufferHits
	if hits == 0 {
		return 0
	}
	return float64(s.MainHits) / float64(hits)
}

// WordsPerReference returns memory traffic as 8-byte words fetched per
// reference (fig. 7a's y axis).
func (s Stats) WordsPerReference() float64 {
	if s.References == 0 {
		return 0
	}
	return float64(s.Mem.BytesFetched) / 8 / float64(s.References)
}

// ModelCostCycles returns the CostCycles that the cost model (§2.1, §2.2,
// DESIGN.md §6) charges for the events s counts under cfg, and whether
// that sum has a closed form for cfg. It is the cycle-conservation
// identity: a correct run's CostCycles equals it.
//
//	CostCycles = MainHits + 3·BounceBackHits + Misses·(1 + t_lat)
//	           + (BytesFetched − LineSize·PrefetchesIssued)/w_b
//	           + WritebackStallCycles + LockStallCycles + 2·WriteThroughStalls
//
// with w_b = mem.BusBytesPerCycle, plus these per-mechanism terms:
//   - a column-associative hit in the slow way costs one more cycle
//     (ColumnSlowHits);
//   - a buffered-bypass hit costs one cycle (BypassBufferHits);
//   - a plain-bypass word fetch and a subblock refill take whole bus
//     cycles, so their bytes leave the byte sum and each fetch adds its
//     own rounded-up cycles instead (one for a word of at most w_b bytes).
//
// There is no closed form, and ok is false, with stream buffers (a stream
// hit waits for its line to arrive), with a line that is not a whole
// number of bus cycles (a multi-line fill rounds once, not per line), and
// under a write-through policy: a store that misses or hits the
// bounce-back cache counts a full write buffer in WriteThroughStalls but
// is not charged for it, and the counters do not tell those stalls apart
// (so under write-back, the one policy with a closed form, the last term
// is zero).
func (s Stats) ModelCostCycles(cfg Config) (cycles uint64, ok bool) {
	const wb = mem.BusBytesPerCycle
	if cfg.StreamBuffers > 0 || cfg.LineSize%wb != 0 || cfg.Writes != WriteBackAllocate {
		return 0, false
	}
	m := s.Mem
	// The byte sum without word and subblock bytes: the lines fetched on
	// demand or into the bypass buffer, prefetched lines left out.
	transfer := (m.LinesFetched - s.PrefetchesIssued) * uint64(cfg.LineSize) / wb
	transfer += s.BypassMemFetches
	if cfg.SubblockSize > 0 {
		transfer += s.SubblockFills * uint64((cfg.SubblockSize+wb-1)/wb)
	}
	cycles = s.MainHits + s.ColumnSlowHits + s.BypassBufferHits +
		bounceBackCycles*s.BounceBackHits +
		s.Misses*uint64(hitCycles+cfg.LatencyCycles) + transfer +
		m.WritebackStallCycles + s.LockStallCycles + 2*m.WriteThroughStalls
	return cycles, true
}
