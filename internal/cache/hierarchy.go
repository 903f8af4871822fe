package cache

import (
	"math/bits"

	"softcache/internal/mem"
	"softcache/internal/trace"
)

// Simulator is the trace-driven model of the whole hierarchy described in
// the package comment. Build one with New, feed it records with Access or a
// whole trace with Run, and read the counters with Stats.
//
// The simulator keeps a cycle clock fed by the per-record issue gaps, so
// structural hazards (the 2-cycle lock of main and bounce-back caches after
// a swap, §2.2) are charged to the accesses that actually collide with them.
//
// A Simulator is not safe for concurrent use: besides the cache state
// proper it owns reusable scratch buffers (the fetch candidate list, the
// invariant checker's seen-tag sets) so the steady-state simulate loop
// allocates nothing.
type Simulator struct {
	cfg    Config
	main   *mainCache
	bb     *bounceBackCache
	bypass *bounceBackCache // buffered-bypass line buffer
	sb     *streamBufferSet // Jouppi stream buffers (related-work baseline)
	memory *mem.System
	stats  Stats

	now    uint64 // cycle at which the previous access completed
	freeAt uint64 // cache locked until this cycle (swap locks)

	fetchScratch []uint64 // reusable candidate-line buffer
	maxPrefetch  int      // cap on resident prefetched bounce-back lines
	pseudoAssoc  bool     // column-associative main cache
	subblocks    int      // subblocks per line (0 = sub-block placement off)
	lineMask     uint64   // LineSize-1: in-line byte offset mask
	subShift     uint     // log2(SubblockSize)
	virtualLines int      // physical lines per default virtual line (>= 1)
	curIssue     uint64   // issue cycle of the access being processed

	// seenMain / seenBB are the invariant checker's scratch sets. They
	// live on the simulator and are cleared in place so the periodic
	// structural scans (and property tests hammering CheckInvariants)
	// allocate only on first use, not per call.
	seenMain map[uint64]bool
	seenBB   map[uint64]bool
}

// New builds a simulator; the configuration must validate.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	memory := mem.NewSystem(cfg.LatencyCycles)
	ways := cfg.Assoc
	if cfg.ColumnAssociative {
		// A column-associative cache is modelled as a pseudo-associative
		// 2-way organisation with a slow second way.
		ways = 2
	}
	s := &Simulator{
		cfg:         cfg,
		main:        newMainCache(cfg.CacheSize, cfg.LineSize, ways, cfg.Replacement),
		memory:      memory,
		pseudoAssoc: cfg.ColumnAssociative,
	}
	if cfg.BounceBackLines > 0 {
		s.bb = newBounceBackCache(cfg.BounceBackLines, cfg.BounceBackAssoc)
	}
	if cfg.StreamBuffers > 0 {
		s.sb = newStreamBufferSet(cfg.StreamBuffers, cfg.LineSize, memory.TransferCycles(cfg.LineSize))
	}
	if cfg.Bypass == BypassBuffered {
		s.bypass = newBounceBackCache(bypassBufferLines, 0)
	}
	if cfg.SubblockSize > 0 {
		s.subblocks = cfg.LineSize / cfg.SubblockSize
		s.lineMask = uint64(cfg.LineSize - 1)
		s.subShift = log2(cfg.SubblockSize)
	}
	s.maxPrefetch = cfg.BounceBackLines / 2
	s.virtualLines = 1
	if cfg.VirtualLineSize > cfg.LineSize {
		s.virtualLines = cfg.VirtualLineSize / cfg.LineSize
	}
	return s, nil
}

// Stats returns the counters accumulated so far (memory counters included).
func (s *Simulator) Stats() Stats {
	out := s.stats
	out.Mem = s.memory.Stats()
	return out
}

// ResetStats clears the accumulated counters while keeping all cache state
// (lines, bounce-back contents, stream buffers, the cycle clock). Use it to
// measure steady-state behaviour after a warm-up prefix, excluding cold
// misses from the reported AMAT.
func (s *Simulator) ResetStats() {
	s.stats = Stats{}
	s.memory.ResetStats()
}

// Access simulates one reference and returns its cost in cycles (including
// any stall waiting for a locked cache). It is a one-record AccessAll.
func (s *Simulator) Access(r trace.Record) int {
	one := [1]trace.Record{r}
	return int(s.AccessAll(one[:]))
}

// AccessAll processes recs in order and returns the sum of their costs in
// cycles; Access is a one-record call, and core.Run hands it whole
// batches. Every organisation has one batched loop that serves its main
// hits, the bulk of every trace, a run at a time: hitRun on a plain
// direct-mapped cache, assocHitRun on a set-associative or sub-blocked
// one (a sub-blocked hit needs its subblock valid), columnHitRun on a
// column-associative one (a hit in the primary slot). A loop carries only
// the run's length, gap sum, store count and temporal-bit count, and the
// clock, the stall and the cost are settled once per run from those: only
// a run's first hit can stall, because every hit leaves the cache free at
// its own completion, so the next one never issues before it.
//
// A software prefetch ends a run and is served here: it takes its issue
// slot, and only a prefetch whose line is on neither chip structure, with
// a bounce-back cache to take it, does more. Every other record a loop
// cannot serve ends the run and takes the general path, access: a miss, a
// store that must post a write-through word or invalidate a stream
// buffer, a column-associative hit in the secondary slot, a sub-blocked
// hit on an invalid subblock. When the loop has already probed a plain
// cache and missed, access is told so and does not probe again. On a
// plain direct-mapped cache each next record's slot is probed here, and
// the records that miss go to access in turn without a call of hitRun
// that would serve none. Under RuntimeChecks each run is one record long
// and the checker runs after it.
func (s *Simulator) AccessAll(recs []trace.Record) uint64 {
	// Stores leave the loop when the general path has more to do than
	// dirty the line: post the word (write-through) or invalidate any
	// stream covering it.
	storesLeave := s.cfg.Writes != WriteBackAllocate || s.sb != nil
	plain := !s.pseudoAssoc && s.subblocks == 0
	direct := plain && s.main.ways == 1
	checks := s.cfg.RuntimeChecks
	var total uint64
	for i := 0; i < len(recs); {
		run := recs[i:]
		if checks {
			run = run[:1]
		}
		var n int
		var gaps, writes, tempSets uint64
		switch {
		case direct:
			n, gaps, writes, tempSets = hitRun(run, s.main.lines, s.main.shift, storesLeave, s.cfg.UseTemporalTags)
		case s.pseudoAssoc:
			n, gaps, writes, tempSets = columnHitRun(run, s.main, storesLeave, s.cfg.UseTemporalTags)
		default:
			n, gaps, writes, tempSets = assocHitRun(run, s.main, s.subShift, s.subblocks > 0, storesLeave, s.cfg.UseTemporalTags)
		}
		if n > 0 {
			var stall uint64
			if issue := s.now + uint64(recs[i].Gap); issue < s.freeAt {
				stall = s.freeAt - issue
			}
			cost := stall + uint64(n)*hitCycles
			s.stats.References += uint64(n)
			s.stats.Reads += uint64(n) - writes
			s.stats.Writes += writes
			s.stats.MainHits += uint64(n)
			s.stats.TemporalBitSets += tempSets
			s.stats.CostCycles += cost
			s.stats.LockStallCycles += stall
			s.now += gaps + cost
			s.freeAt = s.now
			total += cost
			i += n
		}
		if n == len(run) {
			if checks {
				s.runChecks()
			}
			continue
		}
		// recs[i] ended the run. It, and on a direct-mapped cache every
		// next record that the slot probe does not find, is served here;
		// a record that hits goes back to the loop.
		missed := plain
		for {
			if r := &recs[i]; r.SoftwarePrefetch {
				total += s.softwarePrefetch(r)
			} else {
				total += uint64(s.access(r, missed && !(r.Write && storesLeave)))
			}
			i++
			if !direct || i == len(recs) {
				break
			}
			if r := &recs[i]; !r.SoftwarePrefetch && !(r.Write && storesLeave) {
				la := r.Addr >> s.main.shift
				if l := &s.main.lines[la&s.main.setMask]; l.tag == la && l.flags&flagValid != 0 {
					break
				}
			}
			missed = true
		}
	}
	return total
}

// softwarePrefetch serves an explicit prefetch instruction (§4.4
// extension): it occupies one issue slot, never stalls the processor (a
// pending swap lock delays its issue but is charged to nobody), and —
// when the line is absent from both caches — rides the bus into the
// bounce-back cache marked prefetched, exactly like a hardware-initiated
// prefetch. Without a bounce-back structure (no prefetch buffer), or with
// the line already on chip, it is a no-op beyond its issue slot. Prefetch
// instructions are excluded from the AMAT denominator
// (References/CostCycles) so AMAT stays comparable across variants; their
// count and traffic are reported separately. It returns the issue slot's
// cycle.
func (s *Simulator) softwarePrefetch(r *trace.Record) uint64 {
	const issueCost = 1
	s.stats.SoftwarePrefetches++
	s.now = max(s.now+uint64(r.Gap), s.freeAt) + issueCost
	if s.bb != nil {
		s.issuePrefetch(s.main.lineAddr(r.Addr), false)
	}
	return issueCost
}

// hitRun scans the leading run of records in run that hit a direct-mapped
// main cache and need nothing beyond the line's own flags: a store dirties
// the line (unless storesLeave ends the run at it), a temporal-tagged
// reference sets its temporal bit under useTemporal. It returns the run's
// length, the sum of its gaps, its store count and the number of temporal
// bits it set. lines is the whole cache, one line per set and a
// power-of-two count of them, so the set index is a mask of the line
// address. A 1-way set's victim is its lone slot, so the hits leave the
// LRU stamps alone. It stays out of line so that the loop has the
// registers to itself: folding the set-associative scan into it spilled
// its counters and nearly doubled BenchmarkSimulateHits, hence
// assocHitRun.
//
//go:noinline
func hitRun(run []trace.Record, lines []line, shift uint, storesLeave, useTemporal bool) (n int, gaps, writes, tempSets uint64) {
	// With the empty case out of the way and the mask taken from the
	// length, the compiler proves every line index in bounds; the clamped
	// shift needs no range check either.
	if len(lines) == 0 {
		return 0, 0, 0, 0
	}
	mask := uint64(len(lines) - 1)
	shift &= 63
	for i := range run {
		r := &run[i]
		la := r.Addr >> shift
		l := &lines[la&mask]
		f := l.flags
		if f&flagValid == 0 || l.tag != la || r.SoftwarePrefetch || (r.Write && storesLeave) {
			return i, gaps, writes, tempSets
		}
		if r.Write {
			writes++
			f |= flagDirty
		}
		if useTemporal && r.Temporal && f&flagTemporal == 0 {
			f |= flagTemporal
			tempSets++
		}
		l.flags = f
		gaps += uint64(r.Gap)
	}
	return len(run), gaps, writes, tempSets
}

// assocHitRun is hitRun for any other main cache c but a
// column-associative one: it scans each record's set for its line, and
// each hit refreshes the line's LRU stamp exactly as touch does (not
// under FIFO, where the fill order decides). Under subblocked a hit also
// needs the record's subblock valid, the subblock index being the line
// offset shifted down by subShift; a hole ends the run.
//
//go:noinline
func assocHitRun(run []trace.Record, c *mainCache, subShift uint, subblocked, storesLeave, useTemporal bool) (n int, gaps, writes, tempSets uint64) {
	lines, tick, ways, setMask := c.lines, c.tick, c.ways, c.setMask
	shift := c.shift & 63
	offMask := uint64(1)<<shift - 1
	subShift &= 63
	stamp := c.policy != ReplaceFIFO
	n = len(run)
	for i := range run {
		r := &run[i]
		if r.SoftwarePrefetch || (r.Write && storesLeave) {
			n = i
			break
		}
		la := r.Addr >> shift
		base := int(la&setMask) * ways
		set := lines[base : base+ways]
		var l *line
		for w := range set {
			if o := &set[w]; o.tag == la && o.flags&flagValid != 0 {
				l = o
				break
			}
		}
		if l == nil || subblocked && l.subValid&(1<<((r.Addr&offMask)>>subShift)) == 0 {
			n = i
			break
		}
		gaps, writes, tempSets = hitLine(l, r, gaps, writes, tempSets, useTemporal)
		if stamp {
			tick++
			l.lru = tick
		}
	}
	c.tick = tick
	return n, gaps, writes, tempSets
}

// columnHitRun is assocHitRun for a column-associative main cache c: a
// record hits only in its primary slot, the way of its folded set that
// columnHomeWay names, the bit of la just above the set index. A hit in
// the secondary slot costs a cycle more and swaps the two slots, so it
// ends the run.
//
//go:noinline
func columnHitRun(run []trace.Record, c *mainCache, storesLeave, useTemporal bool) (n int, gaps, writes, tempSets uint64) {
	lines, tick, setMask := c.lines, c.tick, c.setMask
	shift := c.shift & 63
	homeShift := uint(bits.Len64(setMask))
	stamp := c.policy != ReplaceFIFO
	n = len(run)
	for i := range run {
		r := &run[i]
		la := r.Addr >> shift
		l := &lines[(la&setMask)<<1|la>>homeShift&1]
		if l.flags&flagValid == 0 || l.tag != la || r.SoftwarePrefetch || (r.Write && storesLeave) {
			n = i
			break
		}
		gaps, writes, tempSets = hitLine(l, r, gaps, writes, tempSets, useTemporal)
		if stamp {
			tick++
			l.lru = tick
		}
	}
	c.tick = tick
	return n, gaps, writes, tempSets
}

// hitLine applies a batched hit by r to line l, as hitRun does inline,
// and returns the run's gap sum, store count and temporal-bit count with
// r's added.
func hitLine(l *line, r *trace.Record, gaps, writes, tempSets uint64, useTemporal bool) (uint64, uint64, uint64) {
	f := l.flags
	if r.Write {
		writes++
		f |= flagDirty
	}
	if useTemporal && r.Temporal && f&flagTemporal == 0 {
		f |= flagTemporal
		tempSets++
	}
	l.flags = f
	return gaps + uint64(r.Gap), writes, tempSets
}

// access simulates one demand reference through the general path: every
// organisation's main-cache probe, then the bounce-back, bypass and
// stream-buffer structures, then the miss. AccessAll has already served
// the main hits its loops batch and every software prefetch, so access
// sees only misses, the stores that leave a loop, and on the
// column-associative and sub-blocked caches their slow hits and holes.
// mainMissed reports that the caller has already found la absent from
// the main cache, so the main-cache probe is skipped.
func (s *Simulator) access(r *trace.Record, mainMissed bool) int {
	s.stats.References++
	if r.Write {
		s.stats.Writes++
	} else {
		s.stats.Reads++
	}

	issue := s.now + uint64(r.Gap)
	stall := 0
	if issue < s.freeAt {
		stall = int(s.freeAt - issue)
		issue = s.freeAt
	}

	temporal := r.Temporal && s.cfg.UseTemporalTags
	spatial := r.Spatial && s.cfg.UseSpatialTags
	la := s.main.lineAddr(r.Addr)
	subIdx := 0
	if s.subblocks > 0 {
		// Line size and subblock size are powers of two (Validate), so
		// the in-line offset and subblock index reduce to mask and shift.
		subIdx = int((r.Addr & s.lineMask) >> s.subShift)
	}

	s.curIssue = issue
	if r.Write && s.sb != nil {
		// Stores invalidate any stream that covers the line: the buffered
		// copy would be stale.
		s.sb.invalidate(la)
	}

	var service, lock int
	switch {
	case !mainMissed && s.tryMainHit(la, subIdx, r.Write, temporal, &service):

	case s.cfg.Bypass != BypassNone && !temporal:
		service = s.bypassAccess(la, *r)

	case s.bb != nil && s.tryBounceBackHit(la, r.Write, temporal, &lock):
		service = bounceBackCycles
		lock += swapLockCycles

	case s.sb != nil && s.tryStreamBufferHit(la, issue, r.Write, temporal, &service):

	default:
		service = s.miss(la, subIdx, r.Write, temporal, spatial, trace.VirtualHintBytes(r.VirtualHint))
	}

	cost := stall + service
	s.stats.CostCycles += uint64(cost)
	s.stats.LockStallCycles += uint64(stall)
	s.now = issue + uint64(service)
	s.freeAt = s.now + uint64(lock)
	if s.cfg.RuntimeChecks {
		s.runChecks()
	}
	return cost
}

// tryMainHit probes the main cache; on a hit it updates LRU, dirty and the
// temporal bit, stores the service time in *service and returns true. In
// the column-associative organisation a hit in the slow (alternate) way
// costs one extra cycle and the two ways are swapped so the line answers
// fast next time.
func (s *Simulator) tryMainHit(la uint64, subIdx int, write, temporal bool, service *int) bool {
	var l *line
	*service = hitCycles
	if s.pseudoAssoc {
		var slow bool
		l, slow = s.columnProbe(la)
		if slow {
			*service = hitCycles + 1
			s.stats.ColumnSlowHits++
		}
	} else {
		l = s.main.lookup(la)
	}
	if l == nil {
		return false
	}
	if s.subblocks > 0 && l.subValid&(1<<subIdx) == 0 {
		// Sub-block placement: the tag matches but the subblock is
		// absent — refill just that subblock (§2.1's sectored design).
		s.stats.Misses++
		s.stats.SubblockFills++
		*service = hitCycles + s.memory.Fetch(0, 0, s.cfg.SubblockSize, 0)
		l.subValid |= 1 << subIdx
	} else {
		s.stats.MainHits++
	}
	s.main.touch(l)
	if write {
		*service += s.storeUpdate(&l.flags)
	}
	s.setTemporal(&l.flags, temporal)
	return true
}

// tryStreamBufferHit checks the stream-buffer head comparators on a demand
// miss. On a hit the line moves into the main cache (the buffer pops and
// prefetches one more line at its tail); the access waits only if the line
// is still in flight.
func (s *Simulator) tryStreamBufferHit(la uint64, issue uint64, write, temporal bool, service *int) bool {
	if s.sb == nil {
		return false
	}
	b, ready := s.sb.probe(la)
	if b == nil {
		return false
	}
	*service = hitCycles
	if ready > issue {
		*service += int(ready - issue)
	}
	s.sb.pop(b, issue)
	s.memory.PrefetchFetch(1, s.cfg.LineSize) // the tail refill
	s.stats.StreamBufferHits++

	s.placeFetchedLine(la, write, temporal)
	return true
}

// placeFetchedLine installs a line arriving outside a regular miss (stream
// buffer pops): the displaced victim is routed as usual, with dirty
// writebacks going through the write buffer on their own.
func (s *Simulator) placeFetchedLine(la uint64, write, temporal bool) {
	if s.main.lookup(la) != nil {
		return
	}
	old, l := s.place(la)
	if write {
		s.storeUpdate(&l.flags)
	}
	s.setTemporal(&l.flags, temporal)
	if old.valid() {
		for range s.evictMainLine(old, nil) {
			s.memory.WritebackOutsideMiss()
		}
	}
}

// place installs line address la in the main cache, following the
// rehash-bit policy in the column-associative organisation and the
// replacement policy otherwise, and returns the displaced contents (invalid
// if none) together with the slot the new line occupies.
func (s *Simulator) place(la uint64) (old line, l *line) {
	if s.pseudoAssoc {
		return s.columnInstall(la)
	}
	l = s.main.victimWay(la, s.cfg.TemporalPriorityReplacement)
	return s.main.install(l, la), l
}

// setTemporal implements the §2.2 rule: a temporal-tagged access sets the
// line's temporal bit; an untagged access leaves it unchanged.
func (s *Simulator) setTemporal(flags *uint8, temporal bool) {
	if temporal && *flags&flagTemporal == 0 {
		*flags |= flagTemporal
		s.stats.TemporalBitSets++
	}
}

// storeUpdate applies the write policy to a store hitting the line with
// the given flags: under write-back the line is dirtied; under the
// write-through policies the word is posted to the write buffer and any
// buffer-full stall is returned. A store that misses and allocates hides
// that stall under the in-flight fetch, so miss ignores it.
func (s *Simulator) storeUpdate(flags *uint8) int {
	if s.cfg.Writes == WriteBackAllocate {
		*flags |= flagDirty
		return 0
	}
	return s.memory.PostWrite(8, s.curIssue)
}

// tryBounceBackHit probes the bounce-back cache; on a hit the entry is
// swapped with the victim way of the main cache set it maps to. If the hit
// was on a prefetched line, the next line is prefetched (progressive
// prefetch) and the main cache stays locked one extra cycle for the
// presence check (§4.4).
func (s *Simulator) tryBounceBackHit(la uint64, write, temporal bool, lock *int) bool {
	if s.bb == nil {
		return false
	}
	e := s.bb.lookup(la)
	if e < 0 {
		return false
	}
	s.stats.BounceBackHits++
	s.stats.Swaps++
	flags := s.bb.flags[e]
	wasPrefetched := flags&flagPrefetched != 0
	if wasPrefetched {
		s.stats.PrefetchHits++
	}

	// Move the bounce-back entry into the main cache...
	vw := s.main.victimWay(la, s.cfg.TemporalPriorityReplacement)
	old := s.main.install(vw, la)
	vw.flags |= flags & flagDirtyTemporal
	if write {
		s.storeUpdate(&vw.flags)
	}
	s.setTemporal(&vw.flags, temporal)

	// ...and the displaced main line into the freed bounce-back slot,
	// which is its set's next victim, so it displaces nothing. A line of
	// another bounce-back set (a set count that does not divide the main
	// cache's) is evicted into its own set instead, like any displaced
	// line, outside a miss.
	s.bb.invalidate(e)
	if old.valid() {
		victim := s.bb.victimFor(old.tag, false, 0)
		displaced := s.bb.install(victim, bbEntry{tag: old.tag, flags: old.flags & flagDirtyTemporal})
		s.handleBBEviction(displaced, nil, false)
	}

	if wasPrefetched && s.cfg.Prefetch.Enabled {
		*lock++ // extra main-cache stall cycle for the presence check
		s.issuePrefetch(la+1, false)
	}
	return true
}

// bypassAccess services a non-temporal reference in one of the bypass modes
// (fig. 3a baselines). The main cache has already missed.
func (s *Simulator) bypassAccess(la uint64, r trace.Record) int {
	if s.cfg.Bypass == BypassBuffered {
		if e := s.bypass.lookup(la); e >= 0 {
			s.bypass.touch(e)
			if r.Write {
				s.bypass.flags[e] |= flagDirty
			}
			s.stats.BypassBufferHits++
			return hitCycles
		}
	}
	s.stats.Misses++
	switch s.cfg.Bypass {
	case BypassPlain:
		// Fetch only the referenced word; allocate nothing.
		s.stats.BypassMemFetches++
		return hitCycles + s.memory.Fetch(0, 0, int(r.Size), 0)
	case BypassBuffered:
		penalty := s.memory.Fetch(1, s.cfg.LineSize, 0, 0)
		victim := s.bypass.victimFor(la, false, 0)
		var flags uint8
		if r.Write {
			flags = flagDirty
		}
		old := s.bypass.install(victim, bbEntry{tag: la, flags: flags})
		if old.valid() && old.dirty() {
			s.memory.WritebackOutsideMiss()
		}
		return hitCycles + penalty
	default:
		panic("cache: bypassAccess called with bypass disabled")
	}
}

// miss services a reference absent from both caches: it selects the physical
// lines to fetch (one, or a whole virtual line for spatial-tagged
// references — possibly length-hinted, §3.2), places them, routes victims
// through the bounce-back cache, and returns the access cost.
func (s *Simulator) miss(la uint64, subIdx int, write, temporal, spatial bool, vlBytes int) int {
	s.stats.Misses++

	if s.subblocks > 0 {
		// Sub-block placement: replace the whole directory entry but
		// fetch only the referenced subblock.
		old, l := s.place(la)
		l.subValid = 1 << subIdx
		if write {
			s.storeUpdate(&l.flags)
		}
		s.setTemporal(&l.flags, temporal)
		dirty := 0
		if old.valid() && old.dirty() {
			dirty = 1
		}
		s.stats.SubblockFills++
		return hitCycles + s.memory.Fetch(0, 0, s.cfg.SubblockSize, dirty)
	}

	fetch := s.fetchScratch[:0]
	nv := s.virtualLines
	if spatial && s.cfg.VariableVirtualLines && vlBytes > 0 {
		if n := vlBytes / s.cfg.LineSize; n >= 1 {
			nv = n
		}
	}
	if spatial && nv > 1 {
		s.stats.VirtualFills++
		block := la &^ uint64(nv-1)
		for i := 0; i < nv; i++ {
			cand := block + uint64(i)
			if cand != la && !s.cfg.NoCoherenceChecks && s.main.lookup(cand) != nil {
				// 1-cycle pipelined tag check, hidden under the
				// request stream (§2.1): the line is not re-fetched.
				s.stats.VirtualLinesSkipped++
				continue
			}
			fetch = append(fetch, cand)
		}
		s.stats.VirtualLinesFetched += uint64(len(fetch))
	} else {
		fetch = append(fetch, la)
	}
	s.fetchScratch = fetch

	dirtyWB := 0
	for _, cand := range fetch {
		// Bounce-back coherence (§2.2): the bounce-back cache is checked
		// after the memory requests have left; a resident copy keeps
		// authority and the main-cache slot is tagged invalid. The fetch
		// itself cannot be aborted, so the traffic is still paid. With
		// the checks ablated the bounce-back copy is dropped instead (the
		// memory copy wins), which is incoherent hardware but keeps the
		// simulator's no-duplication invariant.
		if s.bb != nil && cand != la {
			if e := s.bb.lookup(cand); e >= 0 {
				if s.cfg.NoCoherenceChecks {
					s.bb.invalidate(e)
				} else {
					s.stats.Invalidations++
					continue
				}
			}
		}
		// Never duplicate a line. Only a candidate the coherence checks
		// did not probe can be resident: la itself has missed, the
		// candidate loop found every other one absent, and no placement
		// of this miss can bring one back, because handleBBEviction
		// cancels any bounce-back onto a line in flight.
		if s.cfg.NoCoherenceChecks && cand != la && s.main.lookup(cand) != nil {
			continue
		}
		old, nl := s.place(cand)
		if cand == la {
			if write {
				s.storeUpdate(&nl.flags)
			}
			s.setTemporal(&nl.flags, temporal)
		}
		if old.valid() {
			dirtyWB += s.evictMainLine(old, fetch)
		}
	}

	penalty := s.memory.Fetch(len(fetch), s.cfg.LineSize, 0, dirtyWB)

	if s.sb != nil {
		// A demand miss (re)allocates the LRU stream buffer to prefetch
		// the lines following the miss (Jouppi's scheme): the stream's
		// lines arrive behind the demand line, one bus transfer apart.
		completion := s.curIssue + uint64(hitCycles+penalty)
		bytes := s.sb.allocate(la, completion, 0)
		if bytes > 0 {
			s.memory.PrefetchFetch(bytes/s.cfg.LineSize, s.cfg.LineSize)
			s.stats.StreamBufferAllocations++
		}
	}

	if s.cfg.Prefetch.Enabled && (spatial || !s.cfg.Prefetch.SoftwareGuided) {
		// Prefetch the physical line(s) consecutive to the fetched block.
		var next uint64
		if spatial && nv > 1 {
			next = (la &^ uint64(nv-1)) + uint64(nv)
		} else {
			next = la + 1
		}
		s.issuePrefetch(next, true)
	}

	return hitCycles + penalty
}

// evictMainLine routes a line displaced from the main cache: into the
// bounce-back cache when one exists (and the admission policy allows),
// otherwise to the write buffer if dirty. It returns the number of dirty
// writebacks to hide under the in-flight miss.
func (s *Simulator) evictMainLine(old line, inflight []uint64) int {
	if s.bb == nil || (s.cfg.TemporalOnlyAdmission && !old.temporal()) {
		if old.dirty() {
			return 1
		}
		return 0
	}
	victim := s.bb.victimFor(old.tag, false, 0)
	displaced := s.bb.install(victim, bbEntry{tag: old.tag, flags: old.flags & flagDirtyTemporal})
	return s.handleBBEviction(displaced, inflight, true)
}

// handleBBEviction decides the fate of an entry leaving the bounce-back
// cache: bounce it back into the main cache when its temporal bit is set
// and the mechanism is active, otherwise discard it (via the write buffer
// if dirty). underMiss selects whether dirty writebacks are hidden under
// the current miss (returned count) or go through the write buffer on their
// own. The returned value is the number of dirty writebacks to hide.
func (s *Simulator) handleBBEviction(e bbEntry, inflight []uint64, underMiss bool) int {
	if !e.valid() {
		return 0
	}
	if e.prefetched() {
		s.stats.PrefetchDiscarded++
	}
	if s.cfg.BounceBackEnabled && e.temporal() {
		if contains(inflight, e.tag) {
			// The entry maps onto a line of the in-flight miss: the
			// bounce-back is canceled to avoid ping-pong (§2.2).
			s.stats.BounceBackCanceled++
			return s.discard(e, underMiss)
		}
		vw := s.main.victimWay(e.tag, s.cfg.TemporalPriorityReplacement)
		if vw.valid() && contains(inflight, vw.tag) {
			// The target way holds a line just fetched by the miss in
			// flight; erasing it would waste the fetch.
			s.stats.BounceBackCanceled++
			return s.discard(e, underMiss)
		}
		if vw.valid() && vw.dirty() {
			// Bouncing back over a dirty line needs a write-buffer slot;
			// when the buffer is full the transfer is aborted (§2.2).
			if !s.memory.WritebackOutsideMiss() {
				s.stats.BounceBackAborted++
				return s.discard(e, underMiss)
			}
		}
		s.main.install(vw, e.tag)
		// The temporal bit is reset after a bounce-back; only dirtiness
		// survives the re-injection.
		vw.flags |= e.flags & flagDirty
		s.stats.BouncedBack++
		if s.cfg.RuntimeChecks {
			s.checkBouncedBack(e.tag)
		}
		return 0
	}
	return s.discard(e, underMiss)
}

// discard drops a bounce-back entry, routing its contents to the write
// buffer if dirty.
func (s *Simulator) discard(e bbEntry, underMiss bool) int {
	if !e.dirty() {
		return 0
	}
	if underMiss {
		return 1
	}
	s.memory.WritebackOutsideMiss()
	return 0
}

// issuePrefetch fetches physical line la into the bounce-back cache,
// marked prefetched. A line already resident anywhere is skipped (the
// software hint already filtered useless prefetches, §4.4, so
// prefetch-on-miss filtering is not needed — this residence check only
// avoids duplication).
func (s *Simulator) issuePrefetch(la uint64, underMiss bool) {
	if s.main.lookup(la) != nil || s.bb.lookup(la) >= 0 {
		return
	}
	s.memory.PrefetchFetch(1, s.cfg.LineSize)
	s.stats.PrefetchesIssued++
	victim := s.bb.victimFor(la, true, s.maxPrefetch)
	displaced := s.bb.install(victim, bbEntry{tag: la, flags: flagPrefetched})
	s.handleBBEviction(displaced, nil, underMiss)
}

func contains(s []uint64, v uint64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// LineWhere reports where the line containing byte address addr currently
// resides. It exists for tests and the example programs that dissect the
// mechanism's behaviour.
type LineWhere int

const (
	// Absent means the line is in neither structure.
	Absent LineWhere = iota
	// InMain means the line is in the main cache.
	InMain
	// InBounceBack means the line is in the bounce-back cache.
	InBounceBack
)

func (w LineWhere) String() string {
	switch w {
	case Absent:
		return "absent"
	case InMain:
		return "main"
	case InBounceBack:
		return "bounce-back"
	default:
		return "?"
	}
}

// LineInfo is a snapshot of one line's metadata for inspection.
type LineInfo struct {
	Where      LineWhere
	Dirty      bool
	Temporal   bool
	Prefetched bool
}

// Inspect returns the current state of the line containing addr.
func (s *Simulator) Inspect(addr uint64) LineInfo {
	la := s.main.lineAddr(addr)
	if l := s.main.lookup(la); l != nil {
		return LineInfo{Where: InMain, Dirty: l.dirty(), Temporal: l.temporal()}
	}
	if s.bb != nil {
		if i := s.bb.lookup(la); i >= 0 {
			e := s.bb.entry(i)
			return LineInfo{Where: InBounceBack, Dirty: e.dirty(), Temporal: e.temporal(), Prefetched: e.prefetched()}
		}
	}
	return LineInfo{Where: Absent}
}

// CheckInvariants verifies structural invariants (no line resident in both
// caches, no duplicate tags within a structure) and returns a description
// of the first violation, or "" if all hold. Used by property-based tests
// and the periodic runtime checker.
//
// The seen-tag sets are scratch state hoisted onto the simulator and
// cleared in place, so repeated calls (the checker scans every
// structuralCheckInterval references) do not allocate once warm.
func (s *Simulator) CheckInvariants() string {
	if s.seenMain == nil {
		s.seenMain = make(map[uint64]bool, len(s.main.lines))
	} else {
		clear(s.seenMain)
	}
	for i := range s.main.lines {
		l := &s.main.lines[i]
		if !l.valid() {
			continue
		}
		if s.seenMain[l.tag] {
			return "duplicate line in main cache"
		}
		s.seenMain[l.tag] = true
		if s.main.setIndex(l.tag)*s.main.ways > i || i >= (s.main.setIndex(l.tag)+1)*s.main.ways {
			return "main-cache line stored in wrong set"
		}
	}
	if s.bb != nil {
		if s.seenBB == nil {
			s.seenBB = make(map[uint64]bool, len(s.bb.tags))
		} else {
			clear(s.seenBB)
		}
		for _, tag := range s.bb.tags {
			if tag == invalidTag {
				continue
			}
			if s.seenBB[tag] {
				return "duplicate line in bounce-back cache"
			}
			s.seenBB[tag] = true
			if s.seenMain[tag] {
				return "line resident in both main and bounce-back caches"
			}
		}
	}
	return ""
}
