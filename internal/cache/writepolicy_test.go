package cache

import "testing"

func TestWriteThroughNeverDirties(t *testing.T) {
	cfg := testConfig()
	cfg.Writes = WriteThroughAllocate
	s := mustSim(t, cfg)
	s.Access(recW(0)) // store miss: allocates, posts the word
	if s.Inspect(0).Where != InMain {
		t.Fatal("write-through-allocate must allocate on a store miss")
	}
	if s.Inspect(0).Dirty {
		t.Fatal("write-through lines must never be dirty")
	}
	s.Access(recW(8)) // store hit: posts again
	st := s.Stats()
	if st.Mem.BytesWritten != 16 {
		t.Fatalf("bytes written = %d, want 16", st.Mem.BytesWritten)
	}
	// Evicting the line must not produce a writeback (it is clean).
	wbBefore := st.Mem.Writebacks
	s.Access(rec(1024))
	if got := s.Stats().Mem.Writebacks; got != wbBefore {
		t.Fatalf("clean eviction caused a writeback: %d -> %d", wbBefore, got)
	}
}

func TestWriteThroughBufferFullStalls(t *testing.T) {
	cfg := testConfig()
	cfg.Writes = WriteThroughAllocate
	s := mustSim(t, cfg)
	// Back-to-back stores to one line, one per cycle: the 8-entry buffer
	// drains one entry per 2-cycle transfer, so it fills and later stores
	// stall.
	const stores = 64
	totalCost := 0
	for i := 0; i < stores; i++ {
		r := recW(uint64(8 * (i % 4)))
		r.Gap = 0
		totalCost += s.Access(r)
	}
	if s.Stats().Mem.WriteThroughStalls == 0 {
		t.Fatal("expected write-through stalls once the buffer fills")
	}
	// One allocating miss (1 + 20 + 2 cycles), then hits of 1 cycle each.
	if totalCost <= 23+stores-1 {
		t.Fatalf("total cost %d should exceed one miss and %d pure hits", totalCost, stores-1)
	}
}

func TestWriteBackDefaultUnchanged(t *testing.T) {
	// The zero value of WritePolicy must be the paper's write-back
	// design, keeping every existing configuration's behaviour.
	var p WritePolicy
	if p != WriteBackAllocate {
		t.Fatal("zero WritePolicy must be write-back-allocate")
	}
	if WriteBackAllocate.String() != "write-back" ||
		WriteThroughAllocate.String() != "write-through" {
		t.Fatal("WritePolicy.String broken")
	}
}

func TestWritePolicyInvariants(t *testing.T) {
	cfg := softTestConfig()
	cfg.Writes = WriteThroughAllocate
	s := mustSim(t, cfg)
	for i, r := range randomTrace(31, 3000, 4096) {
		s.Access(r)
		if msg := s.CheckInvariants(); msg != "" {
			t.Fatalf("after access %d: %s", i, msg)
		}
	}
}
