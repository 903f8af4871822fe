package cache

import "fmt"

// InvariantError is the diagnostic produced when the opt-in runtime
// invariant checker (Config.RuntimeChecks) finds corrupted simulator state.
// It is delivered by panicking — corruption means every subsequent number
// is suspect, so the simulation must stop immediately — and the experiment
// harness converts the panic into a structured failed-run record.
type InvariantError struct {
	// Invariant names the violated rule (e.g. "hit/miss accounting").
	Invariant string
	// Detail describes the observed inconsistency with the numbers.
	Detail string
	// References is how many trace records had been processed when the
	// violation was detected, locating it in the trace.
	References uint64
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("cache: invariant %q violated after %d references: %s",
		e.Invariant, e.References, e.Detail)
}

// structuralCheckInterval is how often (in references) the O(cache-size)
// structural scans run; the O(1) accounting checks run on every access.
const structuralCheckInterval = 4096

// violated raises an invariant violation.
func (s *Simulator) violated(invariant, format string, args ...interface{}) {
	panic(&InvariantError{
		Invariant:  invariant,
		Detail:     fmt.Sprintf(format, args...),
		References: s.stats.References,
	})
}

// runChecks runs after every reference when RuntimeChecks is on: at the
// end of the general path, or after AccessAll's one-record hit run.
func (s *Simulator) runChecks() {
	st := s.stats
	// 1. Hit/miss accounting: every reference is served by exactly one of
	// the hit paths or counted as a miss.
	hits := st.MainHits + st.BounceBackHits + st.BypassBufferHits + st.StreamBufferHits
	if hits+st.Misses != st.References {
		s.violated("hit/miss accounting",
			"hits %d (main %d + bounce-back %d + bypass %d + stream %d) + misses %d != references %d",
			hits, st.MainHits, st.BounceBackHits, st.BypassBufferHits, st.StreamBufferHits,
			st.Misses, st.References)
	}

	// 2. Words-fetched conservation: fetched bytes account for exactly the
	// fetched lines, plus any sub-line transfers (bypassed words, subblock
	// refills) which can only add to the total.
	mem := s.memory.Stats()
	lineBytes := mem.LinesFetched * uint64(s.cfg.LineSize)
	if s.cfg.Bypass == BypassNone && s.cfg.SubblockSize == 0 {
		if mem.BytesFetched != lineBytes {
			s.violated("words-fetched conservation",
				"bytes fetched %d != lines fetched %d * line size %d",
				mem.BytesFetched, mem.LinesFetched, s.cfg.LineSize)
		}
	} else if mem.BytesFetched < lineBytes {
		s.violated("words-fetched conservation",
			"bytes fetched %d < lines fetched %d * line size %d",
			mem.BytesFetched, mem.LinesFetched, s.cfg.LineSize)
	}

	// 3. Swap accounting: every bounce-back hit performs exactly one swap.
	if st.Swaps != st.BounceBackHits {
		s.violated("swap accounting", "swaps %d != bounce-back hits %d", st.Swaps, st.BounceBackHits)
	}

	if st.References%structuralCheckInterval == 0 {
		s.runStructuralChecks()
	}
}

// runStructuralChecks performs the O(cache-size) scans: bounce-back
// occupancy, duplicate tags, dual residence.
func (s *Simulator) runStructuralChecks() {
	if s.bb != nil {
		// Bounce-back occupancy can never exceed the configured capacity.
		if n := s.bb.countValid(); n > s.cfg.BounceBackLines {
			s.violated("bounce-back occupancy",
				"%d valid entries exceed capacity %d", n, s.cfg.BounceBackLines)
		}
	}
	if msg := s.CheckInvariants(); msg != "" {
		s.violated("structural integrity", "%s", msg)
	}
}

// checkBouncedBack asserts the §2.2 rule that a line re-injected into the
// main cache by a bounce-back has its temporal bit cleared (it must earn
// the bit again before it can bounce back a second time).
func (s *Simulator) checkBouncedBack(tag uint64) {
	l := s.main.lookup(tag)
	if l == nil {
		s.violated("bounce-back placement", "bounced-back line %#x not in main cache", tag)
		return
	}
	if l.temporal() {
		s.violated("temporal bit after bounce-back",
			"line %#x still temporal after bounce-back", tag)
	}
}
