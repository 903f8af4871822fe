package cache

import "testing"

// subblockConfig: 1 KiB cache, 64-byte lines sectored into 32-byte
// subblocks — the PowerPC organisation §3.2 mentions.
func subblockConfig() Config {
	c := testConfig()
	c.LineSize = 64
	c.SubblockSize = 32
	return c
}

func TestSubblockFillFetchesOnlySubblock(t *testing.T) {
	s := mustSim(t, subblockConfig())
	// Full miss at 0: directory entry allocated, only subblock 0 fetched.
	// Penalty: 1 + 20 + 2 (32 bytes over 16 B/cycle).
	if got := s.Access(rec(0)); got != 23 {
		t.Fatalf("miss cost = %d, want 23", got)
	}
	if s.Stats().Mem.BytesFetched != 32 {
		t.Fatalf("bytes = %d, want 32 (one subblock)", s.Stats().Mem.BytesFetched)
	}
	// Same line, second subblock: tag matches, hole refill.
	if got := s.Access(rec(32)); got != 23 {
		t.Fatalf("hole refill cost = %d, want 23", got)
	}
	st := s.Stats()
	if st.SubblockFills != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Both subblocks now valid: hits.
	if got := s.Access(rec(8)); got != 1 {
		t.Fatalf("hit cost = %d", got)
	}
	if got := s.Access(rec(40)); got != 1 {
		t.Fatalf("hit cost = %d", got)
	}
}

func TestSubblockReplacementClearsHoles(t *testing.T) {
	s := mustSim(t, subblockConfig())
	s.Access(rec(0))
	s.Access(rec(32))   // line 0 fully valid
	s.Access(rec(1024)) // conflicts (1 KiB cache): replaces the entry
	// Line 0 must be entirely gone, including subblock 1.
	if got := s.Access(rec(32)); got == 1 {
		t.Fatal("stale subblock survived a directory replacement")
	}
}

func TestSubblockTrafficAdvantage(t *testing.T) {
	// Scattered single-word accesses: sectored 64B lines fetch half the
	// bytes of full 64B lines.
	full := testConfig()
	full.LineSize = 64
	sb := subblockConfig()
	fs := mustSim(t, full)
	ss := mustSim(t, sb)
	for i := uint64(0); i < 64; i++ {
		addr := i * 128 // one access per 64-byte line, spread out
		fs.Access(rec(addr))
		ss.Access(rec(addr))
	}
	if f, s2 := fs.Stats().Mem.BytesFetched, ss.Stats().Mem.BytesFetched; s2 != f/2 {
		t.Fatalf("sectored traffic = %d, full-line = %d (want half)", s2, f)
	}
}

func TestSubblockValidation(t *testing.T) {
	cfg := subblockConfig()
	cfg.SubblockSize = 48 // not a power of two
	if _, err := New(cfg); err == nil {
		t.Fatal("non-pow2 subblock must be rejected")
	}
	cfg = subblockConfig()
	cfg.SubblockSize = 64 // == line size
	if _, err := New(cfg); err == nil {
		t.Fatal("subblock == line size must be rejected")
	}
	cfg = subblockConfig()
	cfg.LineSize = 512
	cfg.SubblockSize = 32 // 16 subblocks > 8
	if _, err := New(cfg); err == nil {
		t.Fatal("more than 8 subblocks must be rejected")
	}
	cfg = subblockConfig()
	cfg.VirtualLineSize = 128
	cfg.UseSpatialTags = true
	if _, err := New(cfg); err == nil {
		t.Fatal("subblocks + virtual lines must be rejected")
	}
	cfg = subblockConfig()
	cfg.BounceBackLines = 8
	if _, err := New(cfg); err == nil {
		t.Fatal("subblocks + bounce-back must be rejected")
	}
}

func TestSubblockInvariants(t *testing.T) {
	s := mustSim(t, subblockConfig())
	for i, r := range randomTrace(41, 4000, 8192) {
		s.Access(r)
		if msg := s.CheckInvariants(); msg != "" {
			t.Fatalf("after access %d: %s", i, msg)
		}
	}
	st := s.Stats()
	if st.MainHits+st.Misses != st.References {
		t.Fatalf("accounting: %+v", st)
	}
}

func TestSubblockWriteDirtiesLine(t *testing.T) {
	s := mustSim(t, subblockConfig())
	s.Access(recW(0))
	if !s.Inspect(0).Dirty {
		t.Fatal("store must dirty the line")
	}
	s.Access(rec(1024)) // eviction writes the dirty line back
	if s.Stats().Mem.Writebacks != 1 {
		t.Fatalf("writebacks = %d", s.Stats().Mem.Writebacks)
	}
}
