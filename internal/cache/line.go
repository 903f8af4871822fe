// Package cache implements the hardware model at the heart of the paper:
// a small main data cache (direct-mapped or set-associative) optionally
// assisted by
//
//   - virtual lines: on a miss by a reference carrying the software
//     *spatial* hint, the whole aligned virtual line (several physical
//     lines) is fetched, skipping lines already resident (§2.1);
//   - a bounce-back cache: a small fully-associative victim cache whose LRU
//     victim is re-injected ("bounced back") into the main cache instead of
//     being discarded when its *temporal* bit is set (§2.2);
//   - software-assisted progressive prefetch using the bounce-back cache as
//     the prefetch buffer (§4.4);
//   - cache bypass baselines, plain and through a small buffer (§2.2,
//     fig. 3a);
//   - temporal-priority replacement for set-associative caches, the
//     "simplified soft" design of fig. 9b.
//
// The model is trace-driven and cycle-approximate: every reference is
// charged an access cost in cycles following the conventions of DESIGN.md
// §6, and AMAT is the mean of those costs.
//
// The data structures are built for throughput: line metadata is packed
// into flat slices of fixed-size structs (one flags byte instead of a bool
// per property), set indexing uses a mask when the set count is a power of
// two (the common case — a 64-bit divide costs more than a whole hit
// lookup), and the steady-state simulate loop performs no heap allocations
// (verified by TestAccessSteadyStateZeroAllocs in package core). The
// deliberately naive map-based model in cache/refmodel cross-checks that
// none of this changes behaviour.
package cache

// Flag bits shared by main-cache lines and bounce-back entries. Packing
// the per-line booleans into one byte keeps the metadata structs small and
// lets multi-flag transfers (a swap moving dirty+temporal together) be a
// single mask-and-or instead of field-by-field copies.
const (
	flagValid uint8 = 1 << iota
	flagDirty
	flagTemporal
	flagPrefetched // bounce-back entries only (§4.4 prefetch buffer)

	flagDirtyTemporal = flagDirty | flagTemporal
)

// line is one physical cache line's book-keeping state. The simulator is
// trace-driven, so no data payload is stored.
type line struct {
	tag      uint64 // line address (byte address >> line shift)
	lru      uint64 // last-touch tick, larger = more recent
	subValid uint8  // per-subblock valid bits (sub-block placement only)
	flags    uint8  // flagValid | flagDirty | flagTemporal
}

func (l line) valid() bool    { return l.flags&flagValid != 0 }
func (l line) dirty() bool    { return l.flags&flagDirty != 0 }
func (l line) temporal() bool { return l.flags&flagTemporal != 0 }

// mainCache is the set-associative main data cache. Assoc 1 gives the
// direct-mapped organisation the paper targets.
type mainCache struct {
	sets     int
	ways     int
	lineSize int
	shift    uint   // log2(lineSize)
	setMask  uint64 // sets-1 when sets is a power of two
	maskable bool   // set indexing may use setMask instead of modulo
	lines    []line
	tick     uint64
	policy   ReplacementPolicy
	rng      uint64 // xorshift state for ReplaceRandom
}

func newMainCache(sizeBytes, lineSize, ways int, policy ReplacementPolicy) *mainCache {
	sets := sizeBytes / (lineSize * ways)
	return &mainCache{
		sets:     sets,
		ways:     ways,
		lineSize: lineSize,
		shift:    log2(lineSize),
		setMask:  uint64(sets - 1),
		maskable: isPow2(sets),
		lines:    make([]line, sets*ways),
		policy:   policy,
		rng:      0x9e3779b97f4a7c15,
	}
}

func log2(n int) uint {
	var s uint
	for 1<<s < n {
		s++
	}
	return s
}

// lineAddr converts a byte address to a line address.
func (c *mainCache) lineAddr(addr uint64) uint64 { return addr >> c.shift }

// setIndex maps a line address to its set. Cache geometry is almost always
// a power of two (Validate requires pow2 size and line size; only an odd
// associativity breaks it), so the hot path is a mask; the modulo fallback
// keeps odd-way configurations working.
func (c *mainCache) setIndex(la uint64) int {
	if c.maskable {
		return int(la & c.setMask)
	}
	return int(la % uint64(c.sets))
}

// lookup returns the way holding line address la, or nil. The
// direct-mapped organisation (the paper's default, and the hottest probe
// in the whole simulator) is a single masked load: its set count,
// CacheSize/LineSize, is a power of two (Validate). The set scan stays
// out of line. lookup itself cannot inline: Go charges a call that is not
// inlined 57 of its budget of 80, and the masked probe costs more than
// the rest.
func (c *mainCache) lookup(la uint64) *line {
	if c.ways == 1 {
		if l := &c.lines[la&c.setMask]; l.tag == la && l.flags&flagValid != 0 {
			return l
		}
		return nil
	}
	return c.lookupSet(la)
}

// lookupSet is lookup's scan of a set of more than one way, kept out of
// lookup so that the direct-mapped probe stays short.
//
//go:noinline
func (c *mainCache) lookupSet(la uint64) *line {
	base := c.setIndex(la) * c.ways
	set := c.lines[base : base+c.ways]
	for w := range set {
		l := &set[w]
		if l.flags&flagValid != 0 && l.tag == la {
			return l
		}
	}
	return nil
}

// touch marks l as most recently used. Under FIFO the fill order decides
// eviction, so hits do not refresh the timestamp.
func (c *mainCache) touch(l *line) {
	if c.policy == ReplaceFIFO {
		return
	}
	c.tick++
	l.lru = c.tick
}

// victimWay selects the replacement victim in the set of line address la.
// Invalid ways are preferred; otherwise plain LRU, unless temporalPriority
// is set, in which case the LRU among lines with a clear temporal bit is
// preferred ("an LRU policy is still used, but non-temporal data are
// preferably replaced", §3.2).
//
// When the priority spares a temporal line that plain LRU would have
// evicted, that line's temporal bit is cleared: it gets one extra lease and
// then competes normally. This is the simplified-design analog of the
// paper's dynamic adjustment ("once a data has been bounced back, its
// temporal bit is reset" — §2.2): without it, dead reusable data would pin
// its set forever.
//
// The direct-mapped victim, the lone slot of the set, is taken inline in
// the caller; the scan of a larger set is victimWaySet.
func (c *mainCache) victimWay(la uint64, temporalPriority bool) *line {
	if c.ways == 1 {
		// Direct-mapped: the victim is the lone slot whatever the policy,
		// and the temporal lease below cannot trigger (lruAny and
		// lruNonTemporal would be the same way).
		return &c.lines[la&c.setMask]
	}
	return c.victimWaySet(la, temporalPriority)
}

// victimWaySet is victimWay's scan of a set of more than one way.
func (c *mainCache) victimWaySet(la uint64, temporalPriority bool) *line {
	base := c.setIndex(la) * c.ways
	set := c.lines[base : base+c.ways]
	var lruAny, lruNonTemporal *line
	for w := range set {
		l := &set[w]
		if l.flags&flagValid == 0 {
			return l
		}
		if lruAny == nil || l.lru < lruAny.lru {
			lruAny = l
		}
		if l.flags&flagTemporal == 0 && (lruNonTemporal == nil || l.lru < lruNonTemporal.lru) {
			lruNonTemporal = l
		}
	}
	if temporalPriority && lruNonTemporal != nil {
		if lruAny != lruNonTemporal {
			lruAny.flags &^= flagTemporal
		}
		return lruNonTemporal
	}
	if c.policy == ReplaceRandom {
		c.rng ^= c.rng >> 12
		c.rng ^= c.rng << 25
		c.rng ^= c.rng >> 27
		w := int((c.rng * 0x2545f4914f6cdd1d) >> 33 % uint64(c.ways))
		return &set[w]
	}
	return lruAny
}

// install overwrites way l with line address la and returns the previous
// contents so the caller can route the victim (bounce-back cache, write
// buffer, or the floor).
func (c *mainCache) install(l *line, la uint64) line {
	old := *l
	c.tick++
	*l = line{tag: la, flags: flagValid, lru: c.tick}
	return old
}

// invalidate clears way l (virtual-line coherence, §2.2: when a physical
// line of the requested virtual line is found in the bounce-back cache, the
// main-cache location where it was stored is tagged invalid).
func (c *mainCache) invalidate(l *line) { *l = line{} }

// countValid returns the number of valid lines (used by tests and sanity
// invariants).
func (c *mainCache) countValid() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid() {
			n++
		}
	}
	return n
}
