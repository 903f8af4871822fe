package cache

import (
	"fmt"
	"reflect"
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
	// Three stores in four, each issued with no gap, one cycle after the
	// hit before it: three posted words every five cycles, faster than
	// the buffer drains, one entry every two.
	var run []trace.Record
	for i := 0; i < 96; i++ {
		r := rec(uint64(8 * (i % 4)))
		r.Write = i%4 != 0
		if r.Write {
			r.Gap = 0
		}
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
	if bs.Writes != 72 || bs.Mem.BytesWritten != 72*8 || bs.Mem.WriteThroughStalls == 0 {
		t.Fatalf("Writes %d, BytesWritten %d, WriteThroughStalls %d: want 72 posted words and some stalls",
			bs.Writes, bs.Mem.BytesWritten, bs.Mem.WriteThroughStalls)
	}
	if bs.CostCycles != batchCost || bs.MainHits != 96 {
		t.Fatalf("CostCycles %d (returned %d), MainHits %d, want 96 hits", bs.CostCycles, batchCost, bs.MainHits)
	}
}

// setAssocTrace is a trace for a set-associative variant of
// softTestConfig: every line of set 0 and one more, twice over, each
// touch followed at once by a gap-0 hit on the same line, so a hit issues
// inside the lock of any bounce-back swap; then random references over
// about three cache-fulls with stores, temporal tags, gaps of 0 to 2 and
// a few software prefetches.
func setAssocTrace(cfg Config, seed uint64) []trace.Record {
	var recs []trace.Record
	stride := uint64(cfg.CacheSize / cfg.Assoc) // same set, next line
	for pass := 0; pass < 2; pass++ {
		for k := 0; k <= cfg.Assoc; k++ {
			recs = append(recs, recT(uint64(k)*stride))
			hit := rec(uint64(k)*stride + 8)
			hit.Gap = 0
			recs = append(recs, hit)
		}
	}
	x := seed
	next := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	lines := 3 * cfg.CacheSize / cfg.LineSize
	for i := 0; i < 3000; i++ {
		r := rec(uint64(next(lines)*cfg.LineSize + 8*next(4)))
		r.Gap = uint8(next(3))
		r.Write = next(4) == 0
		r.Temporal = next(3) == 0
		r.SoftwarePrefetch = next(50) == 0
		recs = append(recs, r)
	}
	return recs
}

// TestSetAssocRunsMatchGeneralPath: on 2- and 4-way caches under every
// replacement policy and temporal priority, AccessAll's batched hits,
// over the whole trace and in odd-sized batches, leave what the general
// path leaves one record at a time: the same costs, Stats, clock and
// lines, LRU stamps included, and so the same victim on the next miss.
func TestSetAssocRunsMatchGeneralPath(t *testing.T) {
	type variant struct {
		name     string
		policy   ReplacementPolicy
		priority bool
	}
	variants := []variant{{"lru", ReplaceLRU, false}, {"fifo", ReplaceFIFO, false}, {"random", ReplaceRandom, false}, {"temporal-priority", ReplaceLRU, true}}
	for _, ways := range []int{2, 4} {
		for _, v := range variants {
			cfg := softTestConfig()
			cfg.Assoc = ways
			cfg.Replacement = v.policy
			cfg.TemporalPriorityReplacement = v.priority
			recs := setAssocTrace(cfg, uint64(ways*10+int(v.policy)+1))

			general := mustSim(t, cfg)
			if !general.batchHits {
				t.Fatalf("%d-way %s: hits not batched", ways, v.name)
			}
			var want uint64
			for _, r := range recs {
				want += uint64(general.access(r, false))
			}
			whole := mustSim(t, cfg)
			chunked := mustSim(t, cfg)
			got := whole.AccessAll(recs)
			var gotChunked uint64
			for i := 0; i < len(recs); i += 37 {
				gotChunked += chunked.AccessAll(recs[i:min(i+37, len(recs))])
			}
			name := fmt.Sprintf("%d-way %s", ways, v.name)
			st := general.Stats()
			if st.LockStallCycles == 0 || st.MainHits == 0 || st.Writes == 0 || st.TemporalBitSets == 0 {
				t.Fatalf("%s: the trace must hit, store, set temporal bits and stall on a lock: %+v", name, st)
			}
			for _, b := range []struct {
				how  string
				s    *Simulator
				cost uint64
			}{{"one batch", whole, got}, {"37-record batches", chunked, gotChunked}} {
				if b.cost != want || b.s.Stats() != st || b.s.now != general.now || b.s.freeAt != general.freeAt {
					t.Fatalf("%s, %s: cost %d, clock %d/%d, stats %+v\ngeneral path: cost %d, clock %d/%d, stats %+v",
						name, b.how, b.cost, b.s.now, b.s.freeAt, b.s.Stats(), want, general.now, general.freeAt, st)
				}
				if !reflect.DeepEqual(b.s.main, general.main) {
					t.Fatalf("%s, %s: main cache state differs from the general path's", name, b.how)
				}
				if got, want := nextVictims(b.s.main, v.priority), nextVictims(general.main, v.priority); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %s: next victims %v, general path's %v", name, b.how, got, want)
				}
			}
		}
	}
}

// nextVictims returns the index in c.lines of the way each set would
// evict next, taken on a copy of c: victim selection may clear a temporal
// bit or advance the random policy's state.
func nextVictims(c *mainCache, priority bool) []int {
	cp := *c
	cp.lines = append([]line(nil), c.lines...)
	var out []int
	for set := 0; set < cp.sets; set++ {
		v := cp.victimWay(uint64(1<<20+set), priority) // a line no trace touches
		for i := range cp.lines {
			if &cp.lines[i] == v {
				out = append(out, i)
			}
		}
	}
	return out
}
