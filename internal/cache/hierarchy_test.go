package cache

import (
	"testing"

	"softcache/internal/trace"
)

// testConfig returns a small, easily-reasoned-about hierarchy: 1 KiB
// direct-mapped cache (32 sets of 32 B), 20-cycle latency, 16 B/cycle bus.
func testConfig() Config {
	return Config{
		CacheSize:     1024,
		LineSize:      32,
		Assoc:         1,
		LatencyCycles: 20,
	}
}

func softTestConfig() Config {
	c := testConfig()
	c.VirtualLineSize = 64
	c.BounceBackLines = 4
	c.BounceBackEnabled = true
	c.UseTemporalTags = true
	c.UseSpatialTags = true
	return c
}

func mustSim(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func rec(addr uint64) trace.Record {
	return trace.Record{Addr: addr, Size: 8, Gap: 1}
}

func recT(addr uint64) trace.Record {
	r := rec(addr)
	r.Temporal = true
	return r
}

func recS(addr uint64) trace.Record {
	r := rec(addr)
	r.Spatial = true
	return r
}

func recW(addr uint64) trace.Record {
	r := rec(addr)
	r.Write = true
	return r
}

func TestMissThenHitCosts(t *testing.T) {
	s := mustSim(t, testConfig())
	// Miss: 1 (probe) + 20 (latency) + 2 (32B over 16B/cycle).
	if got := s.Access(rec(0)); got != 23 {
		t.Fatalf("miss cost = %d, want 23", got)
	}
	// Hit in the same line.
	if got := s.Access(rec(8)); got != 1 {
		t.Fatalf("hit cost = %d, want 1", got)
	}
	st := s.Stats()
	if st.Misses != 1 || st.MainHits != 1 || st.References != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Mem.BytesFetched != 32 {
		t.Fatalf("bytes fetched = %d, want 32", st.Mem.BytesFetched)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	s := mustSim(t, testConfig())
	s.Access(rec(0))    // set 0
	s.Access(rec(1024)) // also set 0: evicts
	if got := s.Access(rec(0)); got == 1 {
		t.Fatal("conflicting line should have been evicted")
	}
	if s.Stats().Misses != 3 {
		t.Fatalf("misses = %d, want 3", s.Stats().Misses)
	}
}

func TestSetAssocLRU(t *testing.T) {
	cfg := testConfig()
	cfg.Assoc = 2
	s := mustSim(t, cfg)
	// Three lines mapping to the same set (16 sets of 2 ways now).
	a, b, c := uint64(0), uint64(512), uint64(1024)
	s.Access(rec(a))
	s.Access(rec(b))
	s.Access(rec(a)) // a is now MRU
	s.Access(rec(c)) // evicts b (LRU)
	if got := s.Access(rec(a)); got != 1 {
		t.Fatalf("a should still hit, cost %d", got)
	}
	if got := s.Access(rec(b)); got == 1 {
		t.Fatal("b should have been evicted as LRU")
	}
}

func TestDirtyVictimWriteback(t *testing.T) {
	s := mustSim(t, testConfig())
	s.Access(recW(0))   // dirty line in set 0
	s.Access(rec(1024)) // evicts it
	st := s.Stats()
	if st.Mem.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", st.Mem.Writebacks)
	}
}

func TestWritebackStallWhenTransfersExceedLatency(t *testing.T) {
	cfg := testConfig()
	cfg.LatencyCycles = 1 // transfers (2 cycles) cannot hide
	s := mustSim(t, cfg)
	s.Access(recW(0))
	s.Access(rec(1024))
	st := s.Stats()
	if st.Mem.WritebackStallCycles != 1 { // 2-cycle transfer minus 1-cycle latency
		t.Fatalf("writeback stall = %d, want 1", st.Mem.WritebackStallCycles)
	}
}

func TestVirtualLineFetchesWholeBlock(t *testing.T) {
	cfg := softTestConfig()
	cfg.BounceBackLines = 0 // isolate the virtual-line mechanism
	cfg.BounceBackEnabled = false
	s := mustSim(t, cfg)
	// Spatial miss at the start of an aligned 64-byte block: penalty is
	// 1 + 20 + 4 (64B over 16B/cycle).
	if got := s.Access(recS(0)); got != 25 {
		t.Fatalf("virtual miss cost = %d, want 25", got)
	}
	// The second physical line of the block is now resident.
	if got := s.Access(rec(32)); got != 1 {
		t.Fatalf("second line should hit, cost %d", got)
	}
	st := s.Stats()
	if st.VirtualFills != 1 || st.Mem.BytesFetched != 64 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestVirtualLineAlignment(t *testing.T) {
	cfg := softTestConfig()
	s := mustSim(t, cfg)
	// A miss in the *second* half of the 64-byte block fetches the whole
	// aligned block, not the next 64 bytes.
	s.Access(recS(32))
	if s.Inspect(0).Where != InMain {
		t.Fatal("aligned lower line should be resident")
	}
	if s.Inspect(64).Where != Absent {
		t.Fatal("next block should not be fetched")
	}
}

func TestVirtualLineSkipsResidentLines(t *testing.T) {
	s := mustSim(t, softTestConfig())
	s.Access(rec(32)) // second half resident (non-spatial fill)
	s.Access(recS(0)) // virtual fill: line 32 must be skipped
	st := s.Stats()
	if st.VirtualLinesSkipped != 1 {
		t.Fatalf("skipped = %d, want 1", st.VirtualLinesSkipped)
	}
	// Traffic: 32 (first miss) + 32 (only the absent line).
	if st.Mem.BytesFetched != 64 {
		t.Fatalf("bytes = %d, want 64", st.Mem.BytesFetched)
	}
}

func TestNonSpatialMissIgnoresVirtualLines(t *testing.T) {
	s := mustSim(t, softTestConfig())
	s.Access(rec(0)) // no spatial tag
	if s.Inspect(32).Where != Absent {
		t.Fatal("non-spatial miss must fetch a single physical line")
	}
}

func TestSpatialTagIgnoredWhenDisabled(t *testing.T) {
	cfg := softTestConfig()
	cfg.UseSpatialTags = false
	s := mustSim(t, cfg)
	s.Access(recS(0))
	if s.Inspect(32).Where != Absent {
		t.Fatal("spatial hint must be ignored when UseSpatialTags is false")
	}
}

func TestVictimGoesToBounceBackCache(t *testing.T) {
	s := mustSim(t, softTestConfig())
	s.Access(rec(0))
	s.Access(rec(1024)) // conflict: line 0 displaced into the BB cache
	if s.Inspect(0).Where != InBounceBack {
		t.Fatalf("victim should be in bounce-back cache, got %v", s.Inspect(0).Where)
	}
}

func TestBounceBackHitSwaps(t *testing.T) {
	s := mustSim(t, softTestConfig())
	s.Access(rec(0))
	s.Access(rec(1024))
	// Hit in the BB cache: 3 cycles, swap puts 0 back in main, 1024 in BB.
	if got := s.Access(rec(0)); got != 3 {
		t.Fatalf("BB hit cost = %d, want 3", got)
	}
	if s.Inspect(0).Where != InMain || s.Inspect(1024).Where != InBounceBack {
		t.Fatal("swap did not exchange the lines")
	}
	st := s.Stats()
	if st.BounceBackHits != 1 || st.Swaps != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSwapLockStallsNextAccess(t *testing.T) {
	s := mustSim(t, softTestConfig())
	s.Access(rec(0))
	s.Access(rec(1024))
	s.Access(rec(0)) // swap: cache locked 2 extra cycles
	// Next access arrives 1 cycle later (Gap=1), within the lock window:
	// it pays a 1-cycle stall on top of its hit.
	got := s.Access(rec(1024 + 8)) // BB hit... wait: 1024 now in BB; use a main hit
	_ = got
	st := s.Stats()
	if st.LockStallCycles == 0 {
		t.Fatal("expected a lock stall after the swap")
	}
}

func TestBounceBackOfTemporalVictim(t *testing.T) {
	cfg := softTestConfig()
	cfg.BounceBackLines = 2 // tiny, to force BB evictions quickly
	s := mustSim(t, cfg)

	s.Access(recT(0))   // temporal line in set 0
	s.Access(rec(1024)) // evict it into BB (temporal bit travels along)
	if got := s.Inspect(0); got.Where != InBounceBack || !got.Temporal {
		t.Fatalf("line 0: %+v", got)
	}
	// Fill the BB cache with two more victims from other sets; the LRU
	// entry (line 0) is about to be discarded, but its temporal bit makes
	// it bounce back into main (evicting 1024's line... set 0).
	s.Access(rec(32))
	s.Access(rec(1024 + 32)) // victim 32 -> BB
	s.Access(rec(64))
	s.Access(rec(1024 + 64)) // victim 64 -> BB: BB full, line 0 bounces back
	info := s.Inspect(0)
	if info.Where != InMain {
		t.Fatalf("temporal line should have bounced back to main, got %v", info.Where)
	}
	if info.Temporal {
		t.Fatal("temporal bit must be reset after a bounce-back")
	}
	if s.Stats().BouncedBack != 1 {
		t.Fatalf("bounced back = %d, want 1", s.Stats().BouncedBack)
	}
}

func TestNonTemporalVictimIsDiscarded(t *testing.T) {
	cfg := softTestConfig()
	cfg.BounceBackLines = 2
	s := mustSim(t, cfg)
	s.Access(rec(0)) // no temporal tag
	s.Access(rec(1024))
	s.Access(rec(32))
	s.Access(rec(1024 + 32))
	s.Access(rec(64))
	s.Access(rec(1024 + 64)) // BB overflows: line 0 discarded
	if s.Inspect(0).Where != Absent {
		t.Fatalf("non-temporal line should be discarded, got %v", s.Inspect(0).Where)
	}
	if s.Stats().BouncedBack != 0 {
		t.Fatal("nothing should bounce back")
	}
}

func TestTemporalBitSetOnHitAndPreservedByUntaggedAccess(t *testing.T) {
	s := mustSim(t, softTestConfig())
	s.Access(rec(0))  // miss, no tag: bit clear
	s.Access(recT(0)) // tagged hit: bit set
	if !s.Inspect(0).Temporal {
		t.Fatal("temporal bit should be set by a tagged hit")
	}
	s.Access(rec(0)) // untagged hit: bit unchanged (§2.2 footnote)
	if !s.Inspect(0).Temporal {
		t.Fatal("untagged access must not clear the temporal bit")
	}
	if s.Stats().TemporalBitSets != 1 {
		t.Fatalf("TemporalBitSets = %d, want 1", s.Stats().TemporalBitSets)
	}
}

func TestTemporalTagIgnoredWhenDisabled(t *testing.T) {
	cfg := softTestConfig()
	cfg.UseTemporalTags = false
	s := mustSim(t, cfg)
	s.Access(recT(0))
	if s.Inspect(0).Temporal {
		t.Fatal("temporal hint must be ignored when UseTemporalTags is false")
	}
}

func TestVictimCacheModeNeverBouncesBack(t *testing.T) {
	cfg := softTestConfig()
	cfg.BounceBackEnabled = false // plain victim cache
	cfg.BounceBackLines = 2
	s := mustSim(t, cfg)
	s.Access(recT(0))
	s.Access(rec(1024))
	s.Access(rec(32))
	s.Access(rec(1024 + 32))
	s.Access(rec(64))
	s.Access(rec(1024 + 64))
	if s.Stats().BouncedBack != 0 {
		t.Fatal("victim-cache mode must not bounce back")
	}
}

func TestBBCoherenceInvalidation(t *testing.T) {
	s := mustSim(t, softTestConfig())
	// Get line 32 into the BB cache.
	s.Access(rec(32))
	s.Access(rec(1024 + 32)) // 32 -> BB
	if s.Inspect(32).Where != InBounceBack {
		t.Fatal("setup failed")
	}
	// Virtual fill covering lines 0 and 32: line 32 is in the BB cache,
	// so it is fetched (traffic) but not placed in main (§2.2 coherence).
	before := s.Stats().Mem.BytesFetched
	s.Access(recS(0))
	st := s.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
	if s.Inspect(32).Where != InBounceBack {
		t.Fatal("BB copy must remain authoritative")
	}
	if st.Mem.BytesFetched-before != 64 {
		t.Fatalf("fetch traffic = %d, want 64 (the fetch cannot be aborted)", st.Mem.BytesFetched-before)
	}
}

func TestBypassPlain(t *testing.T) {
	cfg := testConfig()
	cfg.Bypass = BypassPlain
	cfg.UseTemporalTags = true
	s := mustSim(t, cfg)
	// Non-temporal miss: fetch one 8-byte word, allocate nothing.
	// Cost: 1 + 20 + 1 = 22.
	if got := s.Access(rec(0)); got != 22 {
		t.Fatalf("bypass cost = %d, want 22", got)
	}
	if s.Inspect(0).Where != Absent {
		t.Fatal("bypassed line must not be allocated")
	}
	// Temporal references are cached normally.
	s.Access(recT(64))
	if s.Inspect(64).Where != InMain {
		t.Fatal("temporal reference must be cached")
	}
	// A bypassed reference that hits in main uses the cache.
	if got := s.Access(rec(64)); got != 1 {
		t.Fatalf("bypassed ref hitting in cache: cost %d, want 1", got)
	}
}

func TestBypassBuffered(t *testing.T) {
	cfg := testConfig()
	cfg.Bypass = BypassBuffered
	cfg.UseTemporalTags = true
	s := mustSim(t, cfg)
	s.Access(rec(0)) // miss: line into the bypass buffer
	if got := s.Access(rec(8)); got != 1 {
		t.Fatalf("bypass-buffer hit cost = %d, want 1", got)
	}
	st := s.Stats()
	if st.BypassBufferHits != 1 {
		t.Fatalf("buffer hits = %d", st.BypassBufferHits)
	}
	if st.Mem.BytesFetched != 32 {
		t.Fatalf("bytes = %d, want 32 (whole line)", st.Mem.BytesFetched)
	}
}

func TestPrefetchOnSpatialMiss(t *testing.T) {
	cfg := softTestConfig()
	cfg.Prefetch = PrefetchConfig{Enabled: true, SoftwareGuided: true}
	s := mustSim(t, cfg)
	s.Access(recS(0)) // virtual fill 0-63, prefetch line 64 into BB
	info := s.Inspect(64)
	if info.Where != InBounceBack || !info.Prefetched {
		t.Fatalf("line 64 should be prefetched into BB, got %+v", info)
	}
	if s.Stats().PrefetchesIssued != 1 {
		t.Fatalf("prefetches = %d", s.Stats().PrefetchesIssued)
	}
}

func TestProgressivePrefetchOnPrefetchHit(t *testing.T) {
	cfg := softTestConfig()
	cfg.Prefetch = PrefetchConfig{Enabled: true, SoftwareGuided: true}
	s := mustSim(t, cfg)
	s.Access(recS(0)) // prefetches 64
	s.Access(rec(64)) // hit on prefetched line: swap + prefetch 96
	st := s.Stats()
	if st.PrefetchHits != 1 {
		t.Fatalf("prefetch hits = %d, want 1", st.PrefetchHits)
	}
	if s.Inspect(64).Where != InMain {
		t.Fatal("prefetched line should move to main on hit")
	}
	if s.Inspect(96).Where != InBounceBack || !s.Inspect(96).Prefetched {
		t.Fatalf("progressive prefetch should fetch line 96, got %+v", s.Inspect(96))
	}
}

func TestUnguidedPrefetchOnEveryMiss(t *testing.T) {
	cfg := testConfig()
	cfg.BounceBackLines = 4
	cfg.Prefetch = PrefetchConfig{Enabled: true, SoftwareGuided: false}
	s := mustSim(t, cfg)
	s.Access(rec(0)) // untagged miss still prefetches next line
	if s.Inspect(32).Where != InBounceBack {
		t.Fatal("unguided prefetch should trigger on any miss")
	}
}

// TestPrefetchMaxResident: at most half the bounce-back entries hold
// prefetched lines, so with four entries the third prefetch replaces the
// LRU prefetched line even though a free entry remains.
func TestPrefetchMaxResident(t *testing.T) {
	cfg := softTestConfig()
	cfg.BounceBackLines = 4
	cfg.Prefetch = PrefetchConfig{Enabled: true, SoftwareGuided: true}
	s := mustSim(t, cfg)
	addrs := []uint64{4096, 8192, 12288}
	for _, a := range addrs {
		s.Access(trace.Record{Addr: a, Size: 8, Gap: 1, SoftwarePrefetch: true})
	}
	if s.Stats().PrefetchesIssued != 3 {
		t.Fatalf("prefetches issued = %d, want 3", s.Stats().PrefetchesIssued)
	}
	pf := 0
	for _, a := range addrs {
		if s.Inspect(a).Prefetched {
			pf++
		}
	}
	if pf != 2 {
		t.Fatalf("resident prefetched lines = %d, want 2 (half of 4 entries)", pf)
	}
	if s.Inspect(addrs[0]).Where != Absent {
		t.Fatalf("the LRU prefetched line should have been replaced, got %+v", s.Inspect(addrs[0]))
	}
}

func TestTemporalPriorityReplacement(t *testing.T) {
	cfg := testConfig()
	cfg.Assoc = 2
	cfg.UseTemporalTags = true
	cfg.TemporalPriorityReplacement = true
	s := mustSim(t, cfg)
	// Set has 2 ways; fill with one temporal, one plain; the plain one is
	// MRU but non-temporal, so it is evicted first.
	s.Access(recT(0))  // temporal
	s.Access(rec(512)) // same set, plain, MRU
	s.Access(rec(1024))
	if s.Inspect(0).Where != InMain {
		t.Fatal("temporal line should be protected by priority replacement")
	}
	if s.Inspect(512).Where != Absent {
		t.Fatal("non-temporal line should have been evicted despite being MRU")
	}
}

func TestTemporalPriorityLeaseReset(t *testing.T) {
	cfg := testConfig()
	cfg.Assoc = 2
	cfg.UseTemporalTags = true
	cfg.TemporalPriorityReplacement = true
	s := mustSim(t, cfg)
	s.Access(recT(0))
	s.Access(rec(512))
	s.Access(rec(1024)) // evicts 512, clears 0's temporal bit (lease)
	if s.Inspect(0).Temporal {
		t.Fatal("spared line's temporal bit should be cleared (one lease)")
	}
	s.Access(rec(1536)) // now 0 competes as plain LRU and is evicted
	if s.Inspect(0).Where != Absent {
		t.Fatal("dead temporal line must eventually be evictable")
	}
}

func TestStatsAccounting(t *testing.T) {
	s := mustSim(t, softTestConfig())
	refs := []trace.Record{rec(0), recT(0), recS(64), recW(128), rec(1024), rec(0)}
	for _, r := range refs {
		s.Access(r)
	}
	st := s.Stats()
	if st.References != uint64(len(refs)) {
		t.Fatalf("references = %d", st.References)
	}
	total := st.MainHits + st.BounceBackHits + st.BypassBufferHits + st.Misses
	if total != st.References {
		t.Fatalf("hits+misses = %d != references %d", total, st.References)
	}
	if st.Reads+st.Writes != st.References {
		t.Fatalf("reads+writes = %d", st.Reads+st.Writes)
	}
	if st.AMAT() <= 1 {
		t.Fatalf("AMAT = %f, should exceed the hit time with misses present", st.AMAT())
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero cache size", func(c *Config) { c.CacheSize = 0 }},
		{"non-pow2 cache size", func(c *Config) { c.CacheSize = 3000 }},
		{"non-pow2 line", func(c *Config) { c.LineSize = 48 }},
		{"zero assoc", func(c *Config) { c.Assoc = 0 }},
		{"indivisible geometry", func(c *Config) { c.CacheSize = 1024; c.LineSize = 512; c.Assoc = 3 }},
		{"virtual smaller than physical", func(c *Config) { c.VirtualLineSize = 16 }},
		{"non-pow2 virtual", func(c *Config) { c.VirtualLineSize = 96 }},
		{"negative bounce-back", func(c *Config) { c.BounceBackLines = -1 }},
		{"bb assoc indivisible", func(c *Config) { c.BounceBackLines = 4; c.BounceBackAssoc = 3 }},
		{"bypass without temporal tags", func(c *Config) { c.Bypass = BypassPlain }},
		{"prefetch without bb", func(c *Config) { c.Prefetch.Enabled = true }},
		{"bad memory", func(c *Config) { c.LatencyCycles = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatalf("expected error for %s", tc.name)
			}
		})
	}
	if _, err := New(softTestConfig()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestBypassModeString(t *testing.T) {
	if BypassNone.String() != "none" || BypassPlain.String() != "plain" ||
		BypassBuffered.String() != "buffered" || BypassMode(7).String() == "" {
		t.Fatal("BypassMode.String broken")
	}
}

func TestRunAndConfigAccessors(t *testing.T) {
	cfg := softTestConfig()
	s := mustSim(t, cfg)
	s.AccessAll([]trace.Record{rec(0), rec(8), rec(1024)})
	if st := s.Stats(); st.References != 3 {
		t.Fatalf("AccessAll processed %d references", st.References)
	}
}

func TestDerivedStats(t *testing.T) {
	s := mustSim(t, softTestConfig())
	s.Access(rec(0))    // miss
	s.Access(rec(8))    // hit
	s.Access(rec(1024)) // conflict miss
	s.Access(rec(0))    // bounce-back hit
	st := s.Stats()
	if st.MissRatio() != 0.5 {
		t.Fatalf("miss ratio = %v", st.MissRatio())
	}
	if mf := st.MainHitFraction(); mf != 0.5 {
		t.Fatalf("main hit fraction = %v (1 main hit, 1 BB hit)", mf)
	}
	if w := st.WordsPerReference(); w != float64(2*32/8)/4 {
		t.Fatalf("words/ref = %v", w)
	}
	var zero Stats
	if zero.AMAT() != 0 || zero.MissRatio() != 0 || zero.MainHitFraction() != 0 || zero.WordsPerReference() != 0 {
		t.Fatal("zero stats must yield zero metrics")
	}
}

func TestLineWhereString(t *testing.T) {
	if Absent.String() != "absent" || InMain.String() != "main" ||
		InBounceBack.String() != "bounce-back" || LineWhere(9).String() != "?" {
		t.Fatal("LineWhere.String broken")
	}
}

func TestWritePolicyStringUnknown(t *testing.T) {
	if WritePolicy(9).String() == "" {
		t.Fatal("unknown policy must stringify")
	}
}

func TestStructureCounters(t *testing.T) {
	s := mustSim(t, softTestConfig())
	s.Access(rec(0))
	s.Access(rec(1024)) // 0 -> bounce-back cache
	if s.main.countValid() != 1 {
		t.Fatalf("main valid = %d", s.main.countValid())
	}
	if s.bb.countValid() != 1 || s.bb.countPrefetched() != 0 {
		t.Fatalf("bb valid = %d prefetched = %d", s.bb.countValid(), s.bb.countPrefetched())
	}
	cfgPf := softTestConfig()
	cfgPf.Prefetch = PrefetchConfig{Enabled: true, SoftwareGuided: true}
	s2 := mustSim(t, cfgPf)
	s2.Access(recS(0))
	if s2.bb.countPrefetched() != 1 {
		t.Fatalf("prefetched = %d", s2.bb.countPrefetched())
	}
}

func TestStreamBufferContains(t *testing.T) {
	sb := newStreamBufferSet(1, 32, 2)
	sb.allocate(10, 0, 0)
	if !sb.contains(11) || !sb.contains(14) || sb.contains(15) || sb.contains(10) {
		t.Fatal("contains window wrong")
	}
}
