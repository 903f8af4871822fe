package mem

import "testing"

func TestTransferCycles(t *testing.T) {
	s := NewSystem(20)
	cases := []struct{ bytes, want int }{
		{0, 0}, {-5, 0}, {1, 1}, {16, 1}, {17, 2}, {32, 2}, {64, 4},
	}
	for _, c := range cases {
		if got := s.TransferCycles(c.bytes); got != c.want {
			t.Fatalf("TransferCycles(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestFetchPenalty(t *testing.T) {
	s := NewSystem(20)
	// One 32-byte line: 20 + 2.
	if got := s.Fetch(1, 32, 0, 0); got != 22 {
		t.Fatalf("penalty = %d, want 22", got)
	}
	// Two lines of a virtual fill: 20 + 4 — the paper's t_lat + n*LS/w_b.
	if got := s.Fetch(2, 32, 0, 0); got != 24 {
		t.Fatalf("penalty = %d, want 24", got)
	}
	// A bypassed 8-byte word: 20 + 1.
	if got := s.Fetch(0, 0, 8, 0); got != 21 {
		t.Fatalf("penalty = %d, want 21", got)
	}
	st := s.Stats()
	if st.Requests != 3 || st.BytesFetched != 32+64+8 || st.LinesFetched != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestVictimTransfersHiddenUnderLatency(t *testing.T) {
	s := NewSystem(20)
	// 5 dirty victims x 2 cycles = 10 < 20 latency: fully hidden.
	if got := s.Fetch(1, 32, 0, 5); got != 22 {
		t.Fatalf("penalty = %d, want 22 (transfers hidden)", got)
	}
	if s.Stats().WritebackStallCycles != 0 {
		t.Fatal("no stall expected")
	}
	// 15 victims x 2 = 30 > 20: 10 extra cycles.
	if got := s.Fetch(1, 32, 0, 15); got != 32 {
		t.Fatalf("penalty = %d, want 32", got)
	}
	if s.Stats().WritebackStallCycles != 10 {
		t.Fatalf("stall = %d, want 10", s.Stats().WritebackStallCycles)
	}
	if s.Stats().Writebacks != 20 {
		t.Fatalf("writebacks = %d, want 20", s.Stats().Writebacks)
	}
}

func TestWriteBufferOutsideMiss(t *testing.T) {
	s := NewSystem(20) // capacity 8
	for i := 0; i < 8; i++ {
		if !s.WritebackOutsideMiss() {
			t.Fatalf("buffer rejected entry %d of 8", i+1)
		}
	}
	if s.WritebackOutsideMiss() {
		t.Fatal("ninth entry should be rejected")
	}
	if s.Stats().WriteBufferFullAborts != 1 {
		t.Fatalf("aborts = %d", s.Stats().WriteBufferFullAborts)
	}
	// A miss drains one slot.
	s.Fetch(1, 32, 0, 0)
	if !s.WritebackOutsideMiss() {
		t.Fatal("buffer should have drained one slot")
	}
	if s.WriteBufferOccupancy() != 8 {
		t.Fatalf("occupancy = %d", s.WriteBufferOccupancy())
	}
}

func TestPrefetchFetchCountsTrafficOnly(t *testing.T) {
	s := NewSystem(20)
	s.PrefetchFetch(2, 32)
	st := s.Stats()
	if st.BytesFetched != 64 || st.LinesFetched != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Requests != 0 {
		t.Fatal("prefetch fetches are not miss requests")
	}
}

func TestWriteBufferClamp(t *testing.T) {
	s := NewSystem(20)
	s.Fetch(1, 32, 0, 10) // more victims than the 8-entry buffer
	if s.WriteBufferOccupancy() > 8 {
		t.Fatalf("occupancy %d exceeds capacity", s.WriteBufferOccupancy())
	}
}

func TestPostWrite(t *testing.T) {
	s := NewSystem(20) // 8-entry buffer, 2-cycle transfer
	for i := 0; i < 8; i++ {
		if stall := s.PostWrite(8, 0); stall != 0 {
			t.Fatalf("post %d of 8 stalled %d", i+1, stall)
		}
	}
	// Buffer full at the same cycle: the ninth post stalls one transfer.
	if stall := s.PostWrite(8, 0); stall != 2 {
		t.Fatalf("full-buffer post stalled %d, want 2", stall)
	}
	st := s.Stats()
	if st.BytesWritten != 72 || st.WriteThroughStalls != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Time-based drain: 16 cycles later all eight entries have drained.
	if stall := s.PostWrite(8, 16); stall != 0 {
		t.Fatal("drained buffer must accept the post")
	}
	if s.WriteBufferOccupancy() != 1 {
		t.Fatalf("occupancy = %d after a full drain and one post", s.WriteBufferOccupancy())
	}
}
