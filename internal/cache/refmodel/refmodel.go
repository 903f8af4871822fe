// Package refmodel is the differential reference for the optimized
// simulator in package cache. It implements the same hardware policies —
// the paper's main cache, bounce-back cache, virtual lines, stream
// buffers, column associativity, sub-block placement, bypass modes and
// §4.4 prefetch — with deliberately naive machinery:
//
//   - line residence is tracked in a map[lineAddr]position, not by
//     scanning packed arrays;
//   - per-line state is individual bool fields on heap-allocated slot
//     structs, not packed flag bytes;
//   - set indexing is plain modulo arithmetic, never a bit mask;
//   - scratch state (fetch candidate lists, stream-buffer FIFOs) is
//     allocated fresh on every use, never reused.
//
// None of the throughput tricks of the optimized kernel appear here, which
// is the point: the two implementations share only the policy
// specification, so any divergence in per-record cost or final statistics
// exposes a bug in one of them. The differential tests in package core
// replay every workload and seeded random traces through both and compare
// record by record; FuzzDifferential extends the search to adversarial
// traces.
//
// The xorshift generator behind ReplaceRandom is mirrored bit-for-bit
// (state seed and output multiplier), because victim choice — and from it
// every downstream number — depends on the exact random sequence.
package refmodel

import (
	"softcache/internal/cache"
	"softcache/internal/mem"
	"softcache/internal/trace"
)

// slot is one cache line's metadata, spelled out as individual fields.
type slot struct {
	Tag        uint64
	Valid      bool
	Dirty      bool
	Temporal   bool
	Prefetched bool         // bounce-back entries only
	SubValid   map[int]bool // present subblocks (sub-block placement only)
	LRU        uint64
}

// position locates a resident line inside a setCache.
type position struct{ set, way int }

// setCache is the naive set-associative structure used for both the main
// cache and the bounce-back/bypass buffers.
type setCache struct {
	sets, ways int
	slots      [][]*slot
	where      map[uint64]position
	tick       uint64
	policy     cache.ReplacementPolicy
	rng        uint64
}

func newSetCache(entries, ways int, policy cache.ReplacementPolicy) *setCache {
	if ways <= 0 || ways > entries {
		ways = entries // fully associative
	}
	sets := entries / ways
	c := &setCache{
		sets:   sets,
		ways:   ways,
		slots:  make([][]*slot, sets),
		where:  make(map[uint64]position),
		policy: policy,
		rng:    0x9e3779b97f4a7c15, // mirrors mainCache's xorshift seed
	}
	for s := range c.slots {
		c.slots[s] = make([]*slot, ways)
		for w := range c.slots[s] {
			c.slots[s][w] = &slot{SubValid: map[int]bool{}}
		}
	}
	return c
}

func (c *setCache) setIndex(la uint64) int { return int(la % uint64(c.sets)) }

// lookup finds la through the residence map (the optimized kernel scans a
// packed array — a structurally different mechanism answering the same
// question).
func (c *setCache) lookup(la uint64) *slot {
	pos, ok := c.where[la]
	if !ok {
		return nil
	}
	l := c.slots[pos.set][pos.way]
	if !l.Valid || l.Tag != la {
		// The map and the slots disagree: surface it as a miss would hide
		// the corruption; the differential test will catch the fallout.
		return nil
	}
	return l
}

func (c *setCache) touch(l *slot) {
	if c.policy == cache.ReplaceFIFO {
		return
	}
	c.tick++
	l.LRU = c.tick
}

func (c *setCache) touchAlways(l *slot) {
	c.tick++
	l.LRU = c.tick
}

// victimWay mirrors mainCache.victimWay including the direct-mapped early
// return (no RNG advance), the temporal-priority lease and the xorshift
// draw for ReplaceRandom.
func (c *setCache) victimWay(la uint64, temporalPriority bool) *slot {
	set := c.slots[c.setIndex(la)]
	if c.ways == 1 {
		return set[0]
	}
	var lruAny, lruNonTemporal *slot
	for _, l := range set {
		if !l.Valid {
			return l
		}
		if lruAny == nil || l.LRU < lruAny.LRU {
			lruAny = l
		}
		if !l.Temporal && (lruNonTemporal == nil || l.LRU < lruNonTemporal.LRU) {
			lruNonTemporal = l
		}
	}
	if temporalPriority && lruNonTemporal != nil {
		if lruAny != lruNonTemporal {
			lruAny.Temporal = false
		}
		return lruNonTemporal
	}
	if c.policy == cache.ReplaceRandom {
		c.rng ^= c.rng >> 12
		c.rng ^= c.rng << 25
		c.rng ^= c.rng >> 27
		w := int((c.rng * 0x2545f4914f6cdd1d) >> 33 % uint64(c.ways))
		return set[w]
	}
	return lruAny
}

// victimForBB mirrors bounceBackCache.victimFor (prefetch quota rule).
func (c *setCache) victimForBB(la uint64, insertingPrefetched bool, maxPrefetched int) *slot {
	set := c.slots[c.setIndex(la)]
	var lruAny, lruPrefetched, firstInvalid *slot
	prefetchedCount := 0
	for _, e := range set {
		if !e.Valid {
			if firstInvalid == nil {
				firstInvalid = e
			}
			continue
		}
		if e.Prefetched {
			prefetchedCount++
			if lruPrefetched == nil || e.LRU < lruPrefetched.LRU {
				lruPrefetched = e
			}
		}
		if lruAny == nil || e.LRU < lruAny.LRU {
			lruAny = e
		}
	}
	if insertingPrefetched && maxPrefetched > 0 && prefetchedCount >= maxPrefetched && lruPrefetched != nil {
		return lruPrefetched
	}
	if firstInvalid != nil {
		return firstInvalid
	}
	return lruAny
}

// victimForEvict mirrors bounceBackCache.victimFor without the prefetch
// quota: the first invalid slot, else the LRU one.
func (c *setCache) victimForEvict(la uint64) *slot {
	set := c.slots[c.setIndex(la)]
	var lruAny *slot
	for _, e := range set {
		if !e.Valid {
			return e
		}
		if lruAny == nil || e.LRU < lruAny.LRU {
			lruAny = e
		}
	}
	return lruAny
}

// clear empties slot l and removes it from the residence map.
func (c *setCache) clear(l *slot) {
	if l.Valid {
		delete(c.where, l.Tag)
	}
	*l = slot{SubValid: map[int]bool{}}
}

// snapshot copies l's state (the value a caller keeps after l is reused).
func snapshot(l *slot) slot {
	out := *l
	out.SubValid = map[int]bool{}
	for k, v := range l.SubValid {
		out.SubValid[k] = v
	}
	return out
}

// install puts la into slot l (previous contents returned by value) and
// fixes up the residence map.
func (c *setCache) install(l *slot, pos position, la uint64) slot {
	old := snapshot(l)
	if l.Valid {
		delete(c.where, l.Tag)
	}
	c.tick++
	*l = slot{Tag: la, Valid: true, LRU: c.tick, SubValid: map[int]bool{}}
	c.where[la] = pos
	return old
}

// positionOf finds the set/way coordinates of a slot pointer by scanning —
// naive on purpose; it keeps install calls honest without threading
// positions everywhere.
func (c *setCache) positionOf(target *slot) position {
	for s := range c.slots {
		for w := range c.slots[s] {
			if c.slots[s][w] == target {
				return position{s, w}
			}
		}
	}
	panic("refmodel: slot not part of cache")
}

// The paper's fixed timings and structure sizes, spelled out here from
// §3.1 and §5 rather than taken from package cache.
const (
	hitTime          = 1 // main-cache hit
	bounceBackTime   = 3 // bounce-back cache access
	swapLock         = 2 // both caches locked after a swap, beyond the access
	streamDepth      = 4 // Jouppi's stream-buffer FIFO depth
	bypassBufferSize = 8 // buffered-bypass lines
)

// Simulator is the naive reference hierarchy. Build with New, drive with
// Access, read counters with Stats — the same contract as cache.Simulator.
type Simulator struct {
	cfg    cache.Config
	main   *setCache
	bb     *setCache
	bypass *setCache
	sb     *refStreamBuffers
	memory *mem.System
	stats  cache.Stats

	now    uint64
	freeAt uint64

	maxPrefetch int
	pseudoAssoc bool
	subblocks   int
	curIssue    uint64
}

// New builds the reference simulator; the configuration must validate.
func New(cfg cache.Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	memory := mem.NewSystem(cfg.LatencyCycles)
	ways := cfg.Assoc
	if cfg.ColumnAssociative {
		ways = 2
	}
	s := &Simulator{
		cfg:         cfg,
		main:        newSetCache(cfg.CacheSize/cfg.LineSize, ways, cfg.Replacement),
		memory:      memory,
		pseudoAssoc: cfg.ColumnAssociative,
	}
	if cfg.BounceBackLines > 0 {
		s.bb = newSetCache(cfg.BounceBackLines, bbWays(cfg.BounceBackLines, cfg.BounceBackAssoc), cache.ReplaceLRU)
	}
	if cfg.StreamBuffers > 0 {
		s.sb = &refStreamBuffers{
			count:    cfg.StreamBuffers,
			depth:    streamDepth,
			lineSize: cfg.LineSize,
			transfer: memory.TransferCycles(cfg.LineSize),
			bufs:     make([]*refStreamBuffer, cfg.StreamBuffers),
		}
	}
	if cfg.Bypass == cache.BypassBuffered {
		s.bypass = newSetCache(bypassBufferSize, 0, cache.ReplaceLRU)
	}
	if cfg.SubblockSize > 0 {
		s.subblocks = cfg.LineSize / cfg.SubblockSize
	}
	// At most half the bounce-back entries may hold prefetched lines.
	s.maxPrefetch = cfg.BounceBackLines / 2
	return s, nil
}

func bbWays(entries, assoc int) int {
	if assoc <= 0 || assoc > entries {
		return entries
	}
	return assoc
}

// Stats returns the counters accumulated so far.
func (s *Simulator) Stats() cache.Stats {
	out := s.stats
	out.Mem = s.memory.Stats()
	return out
}

func (s *Simulator) lineAddr(addr uint64) uint64 { return addr / uint64(s.cfg.LineSize) }

func (s *Simulator) virtualLines() int {
	if s.cfg.VirtualLineSize > s.cfg.LineSize {
		return s.cfg.VirtualLineSize / s.cfg.LineSize
	}
	return 1
}

// Access simulates one reference and returns its cost in cycles.
func (s *Simulator) Access(r trace.Record) int {
	if r.SoftwarePrefetch {
		return s.softwarePrefetch(r)
	}
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
	la := s.lineAddr(r.Addr)
	subIdx := 0
	if s.subblocks > 0 {
		subIdx = int(r.Addr%uint64(s.cfg.LineSize)) / s.cfg.SubblockSize
	}

	s.curIssue = issue
	if r.Write && s.sb != nil {
		s.sb.invalidate(la)
	}

	var service, lock int
	switch {
	case s.tryMainHit(la, subIdx, r.Write, temporal, &service):

	case s.cfg.Bypass != cache.BypassNone && !temporal:
		service = s.bypassAccess(la, r)

	case s.bb != nil && s.tryBounceBackHit(la, r.Write, temporal, &lock):
		service = bounceBackTime
		lock += swapLock

	case s.sb != nil && s.tryStreamBufferHit(la, issue, r.Write, temporal, &service):

	default:
		service = s.miss(la, subIdx, r.Write, temporal, spatial, trace.VirtualHintBytes(r.VirtualHint))
	}

	cost := stall + service
	s.stats.CostCycles += uint64(cost)
	s.stats.LockStallCycles += uint64(stall)
	s.now = issue + uint64(service)
	s.freeAt = s.now + uint64(lock)
	return cost
}

func (s *Simulator) softwarePrefetch(r trace.Record) int {
	s.stats.SoftwarePrefetches++
	issue := s.now + uint64(r.Gap)
	if issue < s.freeAt {
		issue = s.freeAt
	}
	const issueCost = 1
	s.now = issue + issueCost
	if s.bb != nil {
		la := s.lineAddr(r.Addr)
		if s.main.lookup(la) == nil && s.bb.lookup(la) == nil {
			s.memory.PrefetchFetch(1, s.cfg.LineSize)
			s.stats.PrefetchesIssued++
			victim := s.bb.victimForBB(la, true, s.maxPrefetch)
			displaced := s.bb.installEntry(victim, la, false, false, true)
			s.handleBBEviction(displaced, nil, false)
		}
	}
	return issueCost
}

// installEntry places a fresh entry into a bounce-back/bypass victim slot,
// mirroring bounceBackCache.install's tick/LRU behaviour.
func (c *setCache) installEntry(victim *slot, la uint64, dirty, temporal, prefetched bool) slot {
	pos := c.positionOf(victim)
	old := snapshot(victim)
	if victim.Valid {
		delete(c.where, victim.Tag)
	}
	c.tick++
	*victim = slot{Tag: la, Valid: true, Dirty: dirty, Temporal: temporal, Prefetched: prefetched, LRU: c.tick, SubValid: map[int]bool{}}
	c.where[la] = pos
	return old
}

func (s *Simulator) setTemporal(l *slot, temporal bool) {
	if temporal && !l.Temporal {
		l.Temporal = true
		s.stats.TemporalBitSets++
	}
}

func (s *Simulator) storeUpdate(l *slot) int {
	if s.cfg.Writes == cache.WriteBackAllocate {
		l.Dirty = true
		return 0
	}
	return s.memory.PostWrite(8, s.curIssue)
}

func (s *Simulator) storeUpdateOnFill(l *slot) {
	if s.cfg.Writes == cache.WriteBackAllocate {
		l.Dirty = true
		return
	}
	s.memory.PostWrite(8, s.curIssue)
}

func (s *Simulator) tryMainHit(la uint64, subIdx int, write, temporal bool, service *int) bool {
	var l *slot
	*service = hitTime
	if s.pseudoAssoc {
		var slow bool
		l, slow = s.columnProbe(la)
		if slow {
			*service = hitTime + 1
			s.stats.ColumnSlowHits++
		}
	} else {
		l = s.main.lookup(la)
	}
	if l == nil {
		return false
	}
	if s.subblocks > 0 && !l.SubValid[subIdx] {
		s.stats.Misses++
		s.stats.SubblockFills++
		*service = hitTime + s.memory.Fetch(0, 0, s.cfg.SubblockSize, 0)
		l.SubValid[subIdx] = true
		s.main.touch(l)
		if write {
			*service += s.storeUpdate(l)
		}
		s.setTemporal(l, temporal)
		return true
	}
	s.main.touch(l)
	if write {
		*service += s.storeUpdate(l)
	}
	s.setTemporal(l, temporal)
	s.stats.MainHits++
	return true
}

func (s *Simulator) tryBounceBackHit(la uint64, write, temporal bool, lock *int) bool {
	e := s.bb.lookup(la)
	if e == nil {
		return false
	}
	s.stats.BounceBackHits++
	s.stats.Swaps++
	wasPrefetched := e.Prefetched
	if wasPrefetched {
		s.stats.PrefetchHits++
	}
	eDirty, eTemporal := e.Dirty, e.Temporal

	vw := s.main.victimWay(la, s.cfg.TemporalPriorityReplacement)
	old := s.main.install(vw, s.main.positionOf(vw), la)
	vw.Dirty = vw.Dirty || eDirty
	vw.Temporal = vw.Temporal || eTemporal
	if write {
		s.storeUpdate(vw)
	}
	s.setTemporal(vw, temporal)

	switch {
	case !old.Valid:
		s.bb.clear(e)
	case s.bb.setIndex(old.Tag) == s.bb.setIndex(la):
		s.bb.installEntry(e, old.Tag, old.Dirty, old.Temporal, false)
	default:
		// The displaced line belongs to another bounce-back set: it is
		// evicted into that set, and what it displaces leaves outside a
		// miss.
		s.bb.clear(e)
		victim := s.bb.victimForEvict(old.Tag)
		displaced := s.bb.installEntry(victim, old.Tag, old.Dirty, old.Temporal, false)
		s.handleBBEviction(displaced, nil, false)
	}

	if wasPrefetched && s.cfg.Prefetch.Enabled {
		*lock++
		s.issuePrefetch(la+1, false)
	}
	return true
}

func (s *Simulator) bypassAccess(la uint64, r trace.Record) int {
	if s.cfg.Bypass == cache.BypassBuffered {
		if e := s.bypass.lookup(la); e != nil {
			s.bypass.touchAlways(e)
			if r.Write {
				e.Dirty = true
			}
			s.stats.BypassBufferHits++
			return hitTime
		}
	}
	s.stats.Misses++
	switch s.cfg.Bypass {
	case cache.BypassPlain:
		s.stats.BypassMemFetches++
		return hitTime + s.memory.Fetch(0, 0, int(r.Size), 0)
	case cache.BypassBuffered:
		penalty := s.memory.Fetch(1, s.cfg.LineSize, 0, 0)
		victim := s.bypass.victimForEvict(la)
		old := s.bypass.installEntry(victim, la, r.Write, false, false)
		if old.Valid && old.Dirty {
			s.memory.WritebackOutsideMiss()
		}
		return hitTime + penalty
	default:
		panic("refmodel: bypassAccess called with bypass disabled")
	}
}

func (s *Simulator) miss(la uint64, subIdx int, write, temporal, spatial bool, vlBytes int) int {
	s.stats.Misses++

	if s.subblocks > 0 {
		var old slot
		var l *slot
		if s.pseudoAssoc {
			old, l = s.columnInstall(la)
		} else {
			l = s.main.victimWay(la, s.cfg.TemporalPriorityReplacement)
			old = s.main.install(l, s.main.positionOf(l), la)
		}
		l.SubValid = map[int]bool{subIdx: true}
		if write {
			s.storeUpdateOnFill(l)
		}
		s.setTemporal(l, temporal)
		dirty := 0
		if old.Valid && old.Dirty {
			dirty = 1
		}
		s.stats.SubblockFills++
		return hitTime + s.memory.Fetch(0, 0, s.cfg.SubblockSize, dirty)
	}

	var fetch []uint64 // naive: fresh list every miss
	nv := s.virtualLines()
	if spatial && s.cfg.VariableVirtualLines && vlBytes > 0 {
		if n := vlBytes / s.cfg.LineSize; n >= 1 {
			nv = n
		}
	}
	if spatial && nv > 1 {
		s.stats.VirtualFills++
		block := la - la%uint64(nv)
		for i := 0; i < nv; i++ {
			cand := block + uint64(i)
			if cand != la && !s.cfg.NoCoherenceChecks && s.main.lookup(cand) != nil {
				s.stats.VirtualLinesSkipped++
				continue
			}
			fetch = append(fetch, cand)
		}
		s.stats.VirtualLinesFetched += uint64(len(fetch))
	} else {
		fetch = append(fetch, la)
	}

	dirtyWB := 0
	for _, cand := range fetch {
		if s.bb != nil && cand != la {
			if e := s.bb.lookup(cand); e != nil {
				if s.cfg.NoCoherenceChecks {
					s.bb.clear(e)
				} else {
					s.stats.Invalidations++
					continue
				}
			}
		}
		if s.main.lookup(cand) != nil {
			continue
		}
		var old slot
		var nl *slot
		if s.pseudoAssoc {
			old, nl = s.columnInstall(cand)
		} else {
			nl = s.main.victimWay(cand, s.cfg.TemporalPriorityReplacement)
			old = s.main.install(nl, s.main.positionOf(nl), cand)
		}
		if cand == la {
			if write {
				s.storeUpdateOnFill(nl)
			}
			s.setTemporal(nl, temporal)
		}
		if old.Valid {
			dirtyWB += s.evictMainLine(old, fetch)
		}
	}

	penalty := s.memory.Fetch(len(fetch), s.cfg.LineSize, 0, dirtyWB)

	if s.sb != nil {
		completion := s.curIssue + uint64(hitTime+penalty)
		bytes := s.sb.allocate(la, completion, 0)
		if bytes > 0 {
			s.memory.PrefetchFetch(bytes/s.cfg.LineSize, s.cfg.LineSize)
			s.stats.StreamBufferAllocations++
		}
	}

	if s.cfg.Prefetch.Enabled && (spatial || !s.cfg.Prefetch.SoftwareGuided) {
		var next uint64
		if spatial && nv > 1 {
			next = la - la%uint64(nv) + uint64(nv)
		} else {
			next = la + 1
		}
		s.issuePrefetch(next, true)
	}

	return hitTime + penalty
}

func (s *Simulator) evictMainLine(old slot, inflight []uint64) int {
	if s.bb == nil || (s.cfg.TemporalOnlyAdmission && !old.Temporal) {
		if old.Dirty {
			return 1
		}
		return 0
	}
	victim := s.bb.victimForEvict(old.Tag)
	displaced := s.bb.installEntry(victim, old.Tag, old.Dirty, old.Temporal, false)
	return s.handleBBEviction(displaced, inflight, true)
}

func (s *Simulator) handleBBEviction(e slot, inflight []uint64, underMiss bool) int {
	if !e.Valid {
		return 0
	}
	if e.Prefetched {
		s.stats.PrefetchDiscarded++
	}
	if s.cfg.BounceBackEnabled && e.Temporal {
		if containsAddr(inflight, e.Tag) {
			s.stats.BounceBackCanceled++
			return s.discard(e, underMiss)
		}
		vw := s.main.victimWay(e.Tag, s.cfg.TemporalPriorityReplacement)
		if vw.Valid && containsAddr(inflight, vw.Tag) {
			s.stats.BounceBackCanceled++
			return s.discard(e, underMiss)
		}
		if vw.Valid && vw.Dirty {
			if !s.memory.WritebackOutsideMiss() {
				s.stats.BounceBackAborted++
				return s.discard(e, underMiss)
			}
		}
		s.main.install(vw, s.main.positionOf(vw), e.Tag)
		vw.Dirty = e.Dirty // temporal bit reset after bounce-back
		s.stats.BouncedBack++
		return 0
	}
	return s.discard(e, underMiss)
}

func (s *Simulator) discard(e slot, underMiss bool) int {
	if !e.Dirty {
		return 0
	}
	if underMiss {
		return 1
	}
	s.memory.WritebackOutsideMiss()
	return 0
}

// issuePrefetch fetches the one physical line la into the bounce-back
// cache unless it is already resident somewhere.
func (s *Simulator) issuePrefetch(la uint64, underMiss bool) {
	if s.main.lookup(la) != nil || s.bb.lookup(la) != nil {
		return
	}
	s.memory.PrefetchFetch(1, s.cfg.LineSize)
	s.stats.PrefetchesIssued++
	victim := s.bb.victimForBB(la, true, s.maxPrefetch)
	displaced := s.bb.installEntry(victim, la, false, false, true)
	s.handleBBEviction(displaced, nil, underMiss)
}

func containsAddr(s []uint64, v uint64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// --- stream buffers, tracking pluggable state naively ---

type refStreamBuffer struct {
	head    uint64
	readyAt []uint64
	lru     uint64
}

type refStreamBuffers struct {
	count    int
	depth    int
	lineSize int
	transfer int
	tick     uint64
	bufs     []*refStreamBuffer // nil entries are invalid buffers
}

func (s *refStreamBuffers) probe(la uint64) (int, uint64) {
	for i, b := range s.bufs {
		if b != nil && b.head == la {
			return i, b.readyAt[0]
		}
	}
	return -1, 0
}

func (s *refStreamBuffers) pop(i int, now uint64) int {
	b := s.bufs[i]
	s.tick++
	b.lru = s.tick
	b.head++
	next := make([]uint64, s.depth) // naive: fresh FIFO every pop
	copy(next, b.readyAt[1:])
	last := now
	if s.depth > 1 && b.readyAt[s.depth-1] > last {
		last = b.readyAt[s.depth-1]
	}
	next[s.depth-1] = last + uint64(s.transfer)
	b.readyAt = next
	return s.lineSize
}

func (s *refStreamBuffers) allocate(la uint64, now uint64, latency int) int {
	victim := -1
	for i, b := range s.bufs {
		if b == nil {
			victim = i
			break
		}
		if victim == -1 || b.lru < s.bufs[victim].lru {
			victim = i
		}
	}
	if victim == -1 {
		return 0
	}
	s.tick++
	nb := &refStreamBuffer{head: la + 1, lru: s.tick, readyAt: make([]uint64, s.depth)}
	for i := 0; i < s.depth; i++ {
		nb.readyAt[i] = now + uint64(latency) + uint64((i+1)*s.transfer)
	}
	s.bufs[victim] = nb
	return s.depth * s.lineSize
}

func (s *refStreamBuffers) invalidate(la uint64) {
	for i, b := range s.bufs {
		if b != nil && la >= b.head && la < b.head+uint64(s.depth) {
			s.bufs[i] = nil
		}
	}
}

func (s *Simulator) tryStreamBufferHit(la uint64, issue uint64, write, temporal bool, service *int) bool {
	i, ready := s.sb.probe(la)
	if i < 0 {
		return false
	}
	*service = hitTime
	if ready > issue {
		*service += int(ready - issue)
	}
	s.sb.pop(i, issue)
	s.memory.PrefetchFetch(1, s.cfg.LineSize)
	s.stats.StreamBufferHits++

	s.placeFetchedLine(la, write, temporal)
	return true
}

func (s *Simulator) placeFetchedLine(la uint64, write, temporal bool) {
	if s.main.lookup(la) != nil {
		return
	}
	var old slot
	var l *slot
	if s.pseudoAssoc {
		old, l = s.columnInstall(la)
	} else {
		l = s.main.victimWay(la, s.cfg.TemporalPriorityReplacement)
		old = s.main.install(l, s.main.positionOf(l), la)
	}
	if write {
		s.storeUpdate(l)
	}
	s.setTemporal(l, temporal)
	if old.Valid {
		if n := s.evictMainLine(old, nil); n > 0 {
			for i := 0; i < n; i++ {
				s.memory.WritebackOutsideMiss()
			}
		}
	}
}

// --- column-associative organisation ---

func (s *Simulator) columnHomeWay(la uint64) int {
	total := uint64(s.main.sets * s.main.ways)
	if la%total >= uint64(s.main.sets) {
		return 1
	}
	return 0
}

func (s *Simulator) columnProbe(la uint64) (*slot, bool) {
	set := s.main.setIndex(la)
	home := s.columnHomeWay(la)
	other := s.main.ways - 1 - home
	hl := s.main.slots[set][home]
	ol := s.main.slots[set][other]
	if hl.Valid && hl.Tag == la {
		return hl, false
	}
	if ol.Valid && ol.Tag == la {
		s.columnSwap(set, home, other)
		return s.main.slots[set][home], true
	}
	return nil, false
}

// columnSwap exchanges the contents of two ways and fixes the residence
// map for both tags.
func (s *Simulator) columnSwap(set, a, b int) {
	sa, sb := s.main.slots[set][a], s.main.slots[set][b]
	*sa, *sb = *sb, *sa
	if sa.Valid {
		s.main.where[sa.Tag] = position{set, a}
	}
	if sb.Valid {
		s.main.where[sb.Tag] = position{set, b}
	}
}

func (s *Simulator) columnInstall(la uint64) (slot, *slot) {
	set := s.main.setIndex(la)
	homeW := s.columnHomeWay(la)
	otherW := s.main.ways - 1 - homeW
	hw := s.main.slots[set][homeW]
	ow := s.main.slots[set][otherW]

	if !hw.Valid {
		s.main.install(hw, position{set, homeW}, la)
		return slot{SubValid: map[int]bool{}}, hw
	}
	occupantAtHome := s.columnHomeWay(hw.Tag) == homeW
	if occupantAtHome {
		// The occupant owns this primary slot: demote it to the secondary
		// way (evicting whatever sat there) and take the primary.
		evicted := snapshot(ow)
		if ow.Valid {
			delete(s.main.where, ow.Tag)
		}
		movedTag := hw.Tag
		*ow = *hw
		hw.Valid = false // contents now live at ow; install must not unmap movedTag
		s.main.where[movedTag] = position{set, otherW}
		s.main.install(hw, position{set, homeW}, la)
		return evicted, hw
	}
	evicted := snapshot(hw)
	s.main.install(hw, position{set, homeW}, la)
	return evicted, hw
}
