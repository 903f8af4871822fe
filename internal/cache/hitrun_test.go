package cache

import (
	"testing"

	"softcache/internal/trace"
)

// swapThenRun is a bounce-back swap followed at once by a run of six main
// hits with gaps 0 and 1 (one temporal-tagged, one store), then a cold
// miss issued with no gap.
func swapThenRun() []trace.Record {
	recs := []trace.Record{
		rec(0),    // miss: issue 1, 23 cycles, clock 24
		rec(1024), // conflict miss, line 0 to the bounce-back cache: issue 25, clock 48
		rec(0),    // bounce-back hit: issue 49, 3 cycles, clock 52, locked until 54
	}
	for i, addr := range []uint64{8, 16, 24, 0, 8, 16} {
		r := rec(addr)
		r.Gap = uint8(i % 2)
		r.Temporal = i == 2
		r.Write = i == 4
		recs = append(recs, r)
	}
	miss := rec(512)
	miss.Gap = 0
	return append(recs, miss)
}

func TestHitRunSettlesStallAndClockOncePerRun(t *testing.T) {
	s := mustSim(t, softTestConfig())
	recs := swapThenRun()
	total := s.AccessAll(recs[:3])
	if s.now != 52 || s.freeAt != 54 {
		t.Fatalf("after the swap: now %d, freeAt %d, want 52, 54", s.now, s.freeAt)
	}
	// The run's first hit issues at 52 and waits 2 cycles for the lock;
	// the other five issue after their predecessors finish, so the run
	// costs 2 + 6 and the clock moves by its 3 gap cycles plus that cost.
	if got := s.AccessAll(recs[3:9]); got != 8 {
		t.Fatalf("run cost %d, want 8", got)
	}
	if s.now != 63 || s.freeAt != 63 {
		t.Fatalf("after the run: now %d, freeAt %d, want 63, 63", s.now, s.freeAt)
	}
	// Issued at 63 with the cache free, the miss pays no stall.
	if got := s.AccessAll(recs[9:]); got != 23 {
		t.Fatalf("miss after the run cost %d, want 23", got)
	}
	if s.now != 86 {
		t.Fatalf("after the miss: now %d, want 86", s.now)
	}
	total += 8 + 23
	st := s.Stats()
	if total != 80 || st.CostCycles != 80 || st.LockStallCycles != 2 {
		t.Fatalf("total %d, CostCycles %d, LockStallCycles %d, want 80, 80, 2", total, st.CostCycles, st.LockStallCycles)
	}
	if st.References != 10 || st.MainHits != 6 || st.Reads != 9 || st.Writes != 1 || st.TemporalBitSets != 1 {
		t.Fatalf("References %d MainHits %d Reads %d Writes %d TemporalBitSets %d, want 10 6 9 1 1",
			st.References, st.MainHits, st.Reads, st.Writes, st.TemporalBitSets)
	}
	if info := s.Inspect(0); !info.Dirty || !info.Temporal {
		t.Fatalf("line 0 after the run: %+v, want dirty and temporal", info)
	}

	// The same trace in one batch, and one record at a time, agrees.
	batch := mustSim(t, softTestConfig())
	if got := batch.AccessAll(recs); got != 80 || batch.Stats() != st {
		t.Fatalf("one batch: cost %d, stats %+v; want 80, %+v", got, batch.Stats(), st)
	}
	one := mustSim(t, softTestConfig())
	for _, r := range recs {
		one.Access(r)
	}
	if one.Stats() != st {
		t.Fatalf("one record at a time: stats %+v, want %+v", one.Stats(), st)
	}
}

// A write-through store hit leaves the batched loop for the general path,
// which posts its word at the store's issue cycle: batched or one record
// at a time, the answers agree, buffer-full stalls included.
func TestWriteThroughStoreInRunMatchesOneAtATime(t *testing.T) {
	cfg := softTestConfig()
	cfg.Writes = WriteThroughAllocate
	// Three stores in four, issued faster than the write buffer drains.
	var run []trace.Record
	for i := 0; i < 48; i++ {
		r := rec(uint64(8 * (i % 4)))
		r.Gap = uint8(i % 2)
		r.Write = i%4 != 0
		run = append(run, r)
	}
	around := swapThenRun() // the swap before the run, the miss after it
	recs := append(around[:3:3], run...)
	recs = append(recs, around[len(around)-1])

	batch := mustSim(t, cfg)
	batchCost := batch.AccessAll(recs)
	one := mustSim(t, cfg)
	var oneCost uint64
	for _, r := range recs {
		oneCost += uint64(one.Access(r))
	}
	bs, ones := batch.Stats(), one.Stats()
	if batchCost != oneCost || bs != ones {
		t.Fatalf("batched: cost %d stats %+v\none at a time: cost %d stats %+v", batchCost, bs, oneCost, ones)
	}
	if bs.Writes != 36 || bs.Mem.BytesWritten != 36*8 || bs.Mem.WriteThroughStalls == 0 {
		t.Fatalf("Writes %d, BytesWritten %d, WriteThroughStalls %d: want 36 posted words and some stalls",
			bs.Writes, bs.Mem.BytesWritten, bs.Mem.WriteThroughStalls)
	}
	if bs.CostCycles != batchCost || bs.MainHits != 48 {
		t.Fatalf("CostCycles %d (returned %d), MainHits %d, want 48 hits", bs.CostCycles, batchCost, bs.MainHits)
	}
}
