package cache

import (
	"strings"
	"testing"

	"softcache/internal/trace"
)

func checkedConfig() Config {
	return Config{
		CacheSize:         1024,
		LineSize:          32,
		Assoc:             1,
		VirtualLineSize:   64,
		BounceBackLines:   8,
		BounceBackEnabled: true,
		UseTemporalTags:   true,
		UseSpatialTags:    true,
		RuntimeChecks:     true,
		LatencyCycles:     20,
	}
}

// synthetic trace that exercises hits, misses, swaps, bounce-backs and
// virtual fills under a tiny cache, with the checker verifying every access.
func adversarialTrace(n int) *trace.Trace {
	t := &trace.Trace{Name: "invariant-exerciser"}
	for i := 0; i < n; i++ {
		r := trace.Record{
			Addr:     uint64((i * 13) % 4096 * 8),
			Size:     8,
			Gap:      uint8(1 + i%3),
			Write:    i%4 == 0,
			Temporal: i%2 == 0,
			Spatial:  i%3 == 0,
		}
		if i%7 == 0 {
			r.Addr = uint64(i % 64 * 8) // heavy conflict region
		}
		t.Append(r)
	}
	return t
}

// TestRuntimeChecksPassOnHealthySimulations: the checker must stay silent
// across the design space on well-formed traces.
func TestRuntimeChecksPassOnHealthySimulations(t *testing.T) {
	tr := adversarialTrace(20000)
	configs := map[string]func() Config{
		"soft":   checkedConfig,
		"victim": func() Config { c := checkedConfig(); c.BounceBackEnabled = false; return c },
		"standard": func() Config {
			c := checkedConfig()
			c.BounceBackLines = 0
			c.VirtualLineSize = 0
			return c
		},
		"2way": func() Config { c := checkedConfig(); c.Assoc = 2; return c },
		"subblock": func() Config {
			c := checkedConfig()
			c.BounceBackLines = 0
			c.VirtualLineSize = 0
			c.LineSize = 64
			c.SubblockSize = 32
			return c
		},
		"bypass": func() Config {
			c := checkedConfig()
			c.BounceBackLines = 0
			c.VirtualLineSize = 0
			c.Bypass = BypassPlain
			return c
		},
		"stream-buffers": func() Config {
			c := checkedConfig()
			c.BounceBackLines = 0
			c.VirtualLineSize = 0
			c.StreamBuffers = 4
			return c
		},
	}
	for name, mk := range configs {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("invariant checker fired on healthy simulation: %v", p)
				}
			}()
			s, err := New(mk())
			if err != nil {
				t.Fatal(err)
			}
			s.AccessAll(tr.Records)
			if s.Stats().References == 0 {
				t.Fatal("no references simulated")
			}
		})
	}
}

// TestInvariantViolationPanicsWithDiagnostic: corrupting the accounting
// must raise *InvariantError on the very next access.
func TestInvariantViolationPanicsWithDiagnostic(t *testing.T) {
	s, err := New(checkedConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := adversarialTrace(100)
	for _, r := range tr.Records[:50] {
		s.Access(r)
	}
	s.stats.Misses += 3 // inject state corruption

	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("corrupted accounting not detected")
		}
		ie, ok := p.(*InvariantError)
		if !ok {
			t.Fatalf("panic value %T, want *InvariantError", p)
		}
		if ie.Invariant != "hit/miss accounting" {
			t.Fatalf("invariant = %q", ie.Invariant)
		}
		if ie.References == 0 || !strings.Contains(ie.Error(), "invariant") {
			t.Fatalf("diagnostic incomplete: %v", ie)
		}
	}()
	s.Access(tr.Records[50])
}

// TestBytesFetchedConservationViolation: a traffic accounting mismatch is
// caught by the words-fetched conservation rule.
func TestBytesFetchedConservationViolation(t *testing.T) {
	s, err := New(checkedConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := adversarialTrace(10)
	for _, r := range tr.Records[:5] {
		s.Access(r)
	}
	s.memory.PrefetchFetch(0, 0) // harmless
	// Corrupt traffic accounting: bytes without lines.
	s.memory.PrefetchFetch(1, 7)

	defer func() {
		p := recover()
		ie, ok := p.(*InvariantError)
		if !ok {
			t.Fatalf("panic = %v (%T), want *InvariantError", p, p)
		}
		if ie.Invariant != "words-fetched conservation" {
			t.Fatalf("invariant = %q", ie.Invariant)
		}
	}()
	s.Access(tr.Records[5])
}

// TestRuntimeChecksOffByDefault: without the opt-in the corrupted state
// goes unnoticed (that silence is exactly what RuntimeChecks exists to
// fix, but it must stay opt-in for speed).
func TestRuntimeChecksOffByDefault(t *testing.T) {
	cfg := checkedConfig()
	cfg.RuntimeChecks = false
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := adversarialTrace(20)
	for _, r := range tr.Records[:10] {
		s.Access(r)
	}
	s.stats.Misses += 3
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("checks ran despite RuntimeChecks=false: %v", p)
		}
	}()
	s.Access(tr.Records[10])
}
