package cache

import (
	"testing"
	"testing/quick"

	"softcache/internal/timing"
	"softcache/internal/trace"
)

// randomTrace builds a reproducible random reference stream confined to a
// small address region so that conflicts, bounce-backs, swaps, virtual
// fills and prefetches all trigger frequently.
func randomTrace(seed uint64, n int, region uint64) []trace.Record {
	rng := timing.NewRNG(seed)
	out := make([]trace.Record, n)
	for i := range out {
		out[i] = trace.Record{
			Addr:     (rng.Uint64() % region) &^ 7,
			Size:     8,
			Gap:      uint8(1 + rng.Intn(5)),
			Write:    rng.Intn(4) == 0,
			Temporal: rng.Intn(3) == 0,
			Spatial:  rng.Intn(2) == 0,
			RefID:    uint32(rng.Intn(16)),
		}
	}
	return out
}

// propertyConfigs is the set of designs the invariant properties must hold
// for: small caches, so conflicts are frequent, around the paper's fixed
// timings and buffer sizes.
func propertyConfigs() map[string]Config {
	small := Config{CacheSize: 512, LineSize: 32, Assoc: 1, LatencyCycles: 10}
	soft := small
	soft.VirtualLineSize = 128
	soft.BounceBackLines = 4
	soft.BounceBackEnabled = true
	soft.UseTemporalTags = true
	soft.UseSpatialTags = true

	assoc := soft
	assoc.Assoc = 2
	assoc.TemporalPriorityReplacement = true

	prefetch := soft
	prefetch.Prefetch = PrefetchConfig{Enabled: true, SoftwareGuided: true}

	victim := soft
	victim.BounceBackEnabled = false

	bypass := small
	bypass.UseTemporalTags = true
	bypass.Bypass = BypassBuffered

	admission := soft
	admission.TemporalOnlyAdmission = true

	noCoh := soft
	noCoh.NoCoherenceChecks = true

	return map[string]Config{
		"small": small, "soft": soft, "assoc": assoc, "prefetch": prefetch,
		"victim": victim, "bypass": bypass, "admission": admission, "nocoherence": noCoh,
	}
}

// TestInvariantsUnderRandomTraffic drives every design with random traffic
// and checks the structural invariants after every access.
func TestInvariantsUnderRandomTraffic(t *testing.T) {
	for name, cfg := range propertyConfigs() {
		t.Run(name, func(t *testing.T) {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range randomTrace(7, 4000, 4096) {
				s.Access(r)
				if msg := s.CheckInvariants(); msg != "" {
					t.Fatalf("after access %d (%v): %s", i, r, msg)
				}
			}
			st := s.Stats()
			if st.MainHits+st.BounceBackHits+st.BypassBufferHits+st.StreamBufferHits+st.Misses != st.References {
				t.Fatalf("hit/miss accounting broken: %+v", st)
			}
		})
	}
}

// TestPropertyCostsPositive uses testing/quick: every access costs at least
// the hit time and the clock never goes backwards.
func TestPropertyCostsPositive(t *testing.T) {
	cfgs := propertyConfigs()
	f := func(seed uint64, pick uint8) bool {
		names := []string{"small", "soft", "assoc", "prefetch", "victim", "bypass"}
		cfg := cfgs[names[int(pick)%len(names)]]
		s, err := New(cfg)
		if err != nil {
			return false
		}
		lastNow := uint64(0)
		for _, r := range randomTrace(seed, 300, 2048) {
			if cost := s.Access(r); cost < hitCycles {
				return false
			}
			if s.now < lastNow {
				return false
			}
			lastNow = s.now
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDeterminism: the simulator is a pure function of (config,
// trace).
func TestPropertyDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := propertyConfigs()["prefetch"]
		tr := randomTrace(seed, 1000, 4096)
		run := func() Stats {
			s, _ := New(cfg)
			for _, r := range tr {
				s.Access(r)
			}
			return s.Stats()
		}
		return run() == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTagMonotonicity: on every design without bypass or prefetch,
// honouring the software tags must not *increase* the miss count versus
// ignoring them on the very same trace (the paper's "software-assisted
// caches appear to be safe" claim, in its strongest per-trace form for the
// bounce-back mechanism alone).
func TestPropertyTagSafetyBounceBack(t *testing.T) {
	base := propertyConfigs()["soft"]
	base.VirtualLineSize = 0 // isolate the temporal mechanism
	f := func(seed uint64) bool {
		tr := randomTrace(seed, 2000, 8192)
		withTags, _ := New(base)
		noTags := base
		noTags.UseTemporalTags = false
		without, _ := New(noTags)
		for _, r := range tr {
			withTags.Access(r)
			without.Access(r)
		}
		// Not a strict theorem for adversarial traces, but random traffic
		// must not show systematic harm: allow a 10% slack.
		return float64(withTags.Stats().Misses) <= 1.10*float64(without.Stats().Misses)+8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestBounceBackCancelOnInflight reproduces the §2.2 ping-pong guard: a
// bounce-back whose target line is part of the in-flight miss is canceled.
func TestBounceBackCancelOnInflight(t *testing.T) {
	cfg := Config{
		CacheSize: 512, LineSize: 32, Assoc: 1, LatencyCycles: 10,
		BounceBackLines: 1, BounceBackEnabled: true, UseTemporalTags: true, UseSpatialTags: true,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Line 0 (temporal) parked in the single-entry BB cache.
	s.Access(recT(0))
	s.Access(rec(512)) // 0 -> BB
	if s.Inspect(0).Where != InBounceBack {
		t.Fatal("setup failed")
	}
	// Miss on line 0's own set again: the displaced victim (512) pushes
	// line 0 out of the BB cache; its bounce-back target (set 0) is the
	// very line being fetched -> canceled.
	s.Access(rec(1024))
	if got := s.Stats().BounceBackCanceled; got != 1 {
		t.Fatalf("canceled = %d, want 1", got)
	}
	if s.Inspect(0).Where != Absent {
		t.Fatalf("canceled bounce-back should discard the entry, got %v", s.Inspect(0).Where)
	}
}

// TestBounceBackAbortOnFullWriteBuffer: bouncing onto a dirty line needs a
// write-buffer slot; with the buffer full the transfer is aborted.
func TestBounceBackAbortOnFullWriteBuffer(t *testing.T) {
	cfg := Config{
		CacheSize: 512, LineSize: 32, Assoc: 1, LatencyCycles: 10,
		BounceBackLines: 1, BounceBackEnabled: true, UseTemporalTags: true,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Access(recT(0))  // temporal line, set 0
	s.Access(rec(512)) // 0 -> BB (set 0 now holds 512)
	w := recW(512)
	s.Access(w) // dirty the occupant of set 0
	// Now force the BB entry (line 0) out: a victim from set 1 enters BB.
	s.Access(rec(32))
	// Fill the write buffer; the bounce-back below happens before the
	// next miss request gives it a chance to drain.
	for s.memory.WritebackOutsideMiss() {
	}
	s.Access(rec(512 + 32)) // 32 -> BB, line 0 must bounce onto dirty set 0
	st := s.Stats()
	if st.BounceBackAborted != 1 {
		t.Fatalf("aborted = %d, want 1 (write buffer full)", st.BounceBackAborted)
	}
	if s.Inspect(0).Where != Absent {
		t.Fatal("aborted bounce-back should discard the entry")
	}
}

// TestScratchScanOrderIndependence: the reusable fetch-candidate buffer is
// pure scratch — whatever length, capacity or garbage contents it carries
// from earlier misses, the eviction scan must behave as if the buffer were
// freshly allocated. Sim B's scratch is actively poisoned before every
// access (junk contents with non-zero length, nil to force regrowth, or
// left dirty) and must stay in lockstep with the untouched sim A.
func TestScratchScanOrderIndependence(t *testing.T) {
	junk := []uint64{0xdeadbeef, 0, ^uint64(0), 42, 42, 7}
	for name, cfg := range propertyConfigs() {
		t.Run(name, func(t *testing.T) {
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range randomTrace(23, 4000, 4096) {
				switch i % 3 {
				case 0:
					b.fetchScratch = append(b.fetchScratch[:0], junk...)
				case 1:
					b.fetchScratch = nil
				}
				ca, cb := a.Access(r), b.Access(r)
				if ca != cb {
					t.Fatalf("record %d (%v): cost %d with clean scratch, %d with poisoned scratch", i, r, ca, cb)
				}
			}
			if sa, sb := a.Stats(), b.Stats(); sa != sb {
				t.Fatalf("stats diverge under scratch poisoning:\nclean:    %+v\npoisoned: %+v", sa, sb)
			}
		})
	}
}

// TestCheckInvariantsIdempotentReuse: the checker's hoisted seen-tag sets
// are cleared in place between calls, so back-to-back and interleaved calls
// must neither report phantom violations (stale entries) nor perturb the
// simulation (the scan is read-only on cache state).
func TestCheckInvariantsIdempotentReuse(t *testing.T) {
	for name, cfg := range propertyConfigs() {
		t.Run(name, func(t *testing.T) {
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range randomTrace(29, 3000, 4096) {
				ca, cb := a.Access(r), b.Access(r)
				if ca != cb {
					t.Fatalf("record %d: cost diverged (%d vs %d) under interleaved checks", i, ca, cb)
				}
				if i%13 == 0 {
					for k := 0; k < 3; k++ {
						if msg := b.CheckInvariants(); msg != "" {
							t.Fatalf("record %d, repeat %d: %s", i, k, msg)
						}
					}
				}
			}
			lines := append([]line(nil), b.main.lines...)
			for k := 0; k < 50; k++ {
				if msg := b.CheckInvariants(); msg != "" {
					t.Fatalf("repeat %d: phantom violation %q", k, msg)
				}
			}
			for i := range lines {
				if lines[i] != b.main.lines[i] {
					t.Fatalf("CheckInvariants mutated main-cache line %d: %+v -> %+v", i, lines[i], b.main.lines[i])
				}
			}
			if sa, sb := a.Stats(), b.Stats(); sa != sb {
				t.Fatalf("stats diverge under interleaved checks:\nplain:   %+v\nchecked: %+v", sa, sb)
			}
		})
	}
}

// TestCheckInvariantsDetectsSeededCorruption: the duplicate scan must flag
// an injected duplicate on every call — map iteration order varies between
// runs, and the in-place-cleared scratch sets must not mask repeats.
func TestCheckInvariantsDetectsSeededCorruption(t *testing.T) {
	cfg := propertyConfigs()["assoc"]
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range randomTrace(31, 2000, 4096) {
		s.Access(r)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("healthy state flagged: %s", msg)
	}
	// Duplicate a valid line into its set sibling (same set, so the
	// wrong-set check stays quiet and the duplicate scan must fire).
	var set int
	found := false
	for set = 0; set < s.main.sets; set++ {
		if s.main.lines[set*s.main.ways].valid() {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no valid line after warmup")
	}
	saved := s.main.lines[set*s.main.ways+1]
	s.main.lines[set*s.main.ways+1] = s.main.lines[set*s.main.ways]
	for k := 0; k < 20; k++ {
		if msg := s.CheckInvariants(); msg != "duplicate line in main cache" {
			t.Fatalf("repeat %d: corruption missed, got %q", k, msg)
		}
	}
	s.main.lines[set*s.main.ways+1] = saved
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("state not restored: %s", msg)
	}
}

// TestCheckInvariantsZeroAllocWarm: once the seen-tag sets exist, the
// periodic structural scan must be allocation-free — it runs inside the
// steady-state loop when RuntimeChecks is on.
func TestCheckInvariantsZeroAllocWarm(t *testing.T) {
	for name, cfg := range propertyConfigs() {
		t.Run(name, func(t *testing.T) {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range randomTrace(37, 2000, 4096) {
				s.Access(r)
			}
			if msg := s.CheckInvariants(); msg != "" { // warm the scratch sets
				t.Fatal(msg)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if msg := s.CheckInvariants(); msg != "" {
					t.Error(msg)
				}
			})
			if allocs != 0 {
				t.Errorf("warm CheckInvariants allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}

// TestFourWayBounceBack exercises the set-associative bounce-back variant.
func TestFourWayBounceBack(t *testing.T) {
	cfg := propertyConfigs()["soft"]
	cfg.BounceBackLines = 8
	cfg.BounceBackAssoc = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range randomTrace(11, 3000, 4096) {
		s.Access(r)
		if msg := s.CheckInvariants(); msg != "" {
			t.Fatalf("after access %d: %s", i, msg)
		}
	}
	if s.Stats().BounceBackHits == 0 {
		t.Fatal("expected some bounce-back hits under random conflict traffic")
	}
}
