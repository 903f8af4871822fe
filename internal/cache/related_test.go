package cache

import "testing"

func streamConfig() Config {
	c := testConfig()
	c.StreamBuffers = 2
	return c
}

func TestStreamBufferHeadHit(t *testing.T) {
	s := mustSim(t, streamConfig())
	s.Access(rec(0)) // miss: allocates a buffer streaming lines 1..4
	st := s.Stats()
	if st.StreamBufferAllocations != 1 {
		t.Fatalf("allocations = %d", st.StreamBufferAllocations)
	}
	// Sequential miss on line 1 (addr 32): stream-buffer head hit.
	r := rec(32)
	r.Gap = 100 // arrive well after the prefetch lands
	cost := s.Access(r)
	st = s.Stats()
	if st.StreamBufferHits != 1 {
		t.Fatalf("stream hits = %d (cost %d)", st.StreamBufferHits, cost)
	}
	if cost != 1 {
		t.Fatalf("late head hit cost = %d, want 1", cost)
	}
	if s.Inspect(32).Where != InMain {
		t.Fatal("popped line must be installed in the main cache")
	}
	// The line after the stream's tail gets prefetched on pop: after the
	// pop the buffer covers lines 2..5.
	if got := s.Access(rec(64)); got > 3 {
		// another head hit (line 2); tolerance for arrival wait
		t.Fatalf("next head hit cost = %d", got)
	}
}

func TestStreamBufferHitWaitsForArrival(t *testing.T) {
	s := mustSim(t, streamConfig())
	s.Access(rec(0))
	r := rec(32)
	r.Gap = 1 // immediately after the miss: line 1 still in flight
	cost := s.Access(r)
	if cost <= 1 {
		t.Fatalf("in-flight head hit must wait, cost = %d", cost)
	}
	// But it must still be cheaper than a full miss (1+20+2).
	if cost >= 23 {
		t.Fatalf("head hit cost %d not better than a miss", cost)
	}
}

func TestStreamBufferNonHeadMissReallocates(t *testing.T) {
	s := mustSim(t, streamConfig())
	s.Access(rec(0))    // buffer A: lines 1..4
	s.Access(rec(4096)) // buffer B: lines 129..132
	s.Access(rec(8192)) // miss: LRU buffer (A) reallocated
	st := s.Stats()
	if st.StreamBufferAllocations != 3 {
		t.Fatalf("allocations = %d, want 3", st.StreamBufferAllocations)
	}
	// Line 1 (addr 32) no longer covered: full miss.
	r := rec(32)
	r.Gap = 100
	if cost := s.Access(r); cost < 20 {
		t.Fatalf("reallocated stream should not hit, cost %d", cost)
	}
}

func TestStreamBufferWriteInvalidation(t *testing.T) {
	s := mustSim(t, streamConfig())
	s.Access(rec(0)) // buffer streams lines 1..4
	s.Access(recW(32))
	// The store to line 1 invalidates the stream; but the store itself
	// missed and allocated a new buffer. Line 2 (addr 64) is covered by
	// the *new* stream (65..68? no: new stream starts at line 2).
	// Verify the old buffer is gone by checking stats consistency.
	st := s.Stats()
	if st.StreamBufferHits != 0 {
		t.Fatalf("the store must not hit a stream buffer: %+v", st)
	}
	if st.StreamBufferAllocations != 2 {
		t.Fatalf("allocations = %d, want 2", st.StreamBufferAllocations)
	}
}

func TestStreamBufferTrafficAccounted(t *testing.T) {
	s := mustSim(t, streamConfig())
	s.Access(rec(0))
	st := s.Stats()
	// Demand line (32B) + 4 prefetched lines (128B).
	if st.Mem.BytesFetched != 32+4*32 {
		t.Fatalf("bytes = %d, want 160", st.Mem.BytesFetched)
	}
}

func columnConfig() Config {
	c := testConfig()
	c.ColumnAssociative = true
	return c
}

func TestColumnAssociativePartnersBothFast(t *testing.T) {
	s := mustSim(t, columnConfig())
	// 1 KiB, 32B lines: 32 original sets folded into 16 pairs. Lines 0
	// (orig index 0) and 512 (orig index 16) are rehash partners: each
	// sits in its own primary slot and both must hit fast.
	s.Access(rec(0))
	s.Access(rec(512))
	if got := s.Access(rec(0)); got != 1 {
		t.Fatalf("line 0 hit cost = %d, want 1", got)
	}
	if got := s.Access(rec(512)); got != 1 {
		t.Fatalf("line 512 hit cost = %d, want 1", got)
	}
	if s.Stats().ColumnSlowHits != 0 {
		t.Fatalf("slow hits = %d, want 0", s.Stats().ColumnSlowHits)
	}
}

func TestColumnAssociativeSlowHit(t *testing.T) {
	s := mustSim(t, columnConfig())
	// Lines 0 and 1024 share original index 0: a true direct-mapped
	// conflict. The second fill demotes the first to its secondary slot.
	s.Access(rec(0))
	s.Access(rec(1024))
	cost := s.Access(rec(0)) // found in the secondary location
	if cost != 2 {
		t.Fatalf("secondary-location hit cost = %d, want 2", cost)
	}
	if s.Stats().ColumnSlowHits != 1 {
		t.Fatalf("slow hits = %d", s.Stats().ColumnSlowHits)
	}
	// The swap promoted 0 to its primary slot: fast again...
	if got := s.Access(rec(0)); got != 1 {
		t.Fatalf("post-swap hit cost = %d, want 1", got)
	}
	// ...and 1024 answers from the secondary slot now.
	if got := s.Access(rec(1024)); got != 2 {
		t.Fatalf("demoted line cost = %d, want 2", got)
	}
}

func TestColumnAssociativeGuestEvictedFirst(t *testing.T) {
	s := mustSim(t, columnConfig())
	s.Access(rec(0))    // primary slot of index 0
	s.Access(rec(1024)) // demotes 0 to the partner slot (a guest there)
	s.Access(rec(512))  // 512's primary IS the partner slot: evicts the guest
	if s.Inspect(0).Where != Absent {
		t.Fatal("the guest line should be evicted by its slot's owner")
	}
	if s.Inspect(1024).Where != InMain || s.Inspect(512).Where != InMain {
		t.Fatal("both owners should be resident")
	}
}

func TestColumnAssociativeRemovesConflictMisses(t *testing.T) {
	// The classic ping-pong A/B conflict: direct-mapped misses every time,
	// column-associative keeps both resident.
	dm := mustSim(t, testConfig())
	ca := mustSim(t, columnConfig())
	for i := 0; i < 50; i++ {
		for _, addr := range []uint64{0, 1024} {
			dm.Access(rec(addr))
			ca.Access(rec(addr))
		}
	}
	if dm.Stats().Misses != 100 {
		t.Fatalf("direct-mapped should ping-pong: %d misses", dm.Stats().Misses)
	}
	if ca.Stats().Misses > 2 {
		t.Fatalf("column-associative should keep both lines: %d misses", ca.Stats().Misses)
	}
}

func TestColumnAssociativeInvariants(t *testing.T) {
	s := mustSim(t, columnConfig())
	for i, r := range randomTrace(21, 4000, 4096) {
		s.Access(r)
		if msg := s.CheckInvariants(); msg != "" {
			t.Fatalf("after access %d: %s", i, msg)
		}
	}
}

func TestStreamBufferInvariants(t *testing.T) {
	s := mustSim(t, streamConfig())
	for i, r := range randomTrace(22, 4000, 4096) {
		s.Access(r)
		if msg := s.CheckInvariants(); msg != "" {
			t.Fatalf("after access %d: %s", i, msg)
		}
	}
	st := s.Stats()
	if st.MainHits+st.BounceBackHits+st.BypassBufferHits+st.StreamBufferHits+st.Misses != st.References {
		t.Fatalf("accounting: %+v", st)
	}
}

func TestRelatedConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.ColumnAssociative = true
	cfg.Assoc = 2
	if _, err := New(cfg); err == nil {
		t.Fatal("column-associative with Assoc=2 must be rejected")
	}
	cfg = testConfig()
	cfg.StreamBuffers = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative stream buffers must be rejected")
	}
}
