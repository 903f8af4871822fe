package cache

// bbEntry is the contents of one bounce-back slot as install takes and
// returns it. Besides the usual state it carries the prefetched flag of
// §4.4 (the bounce-back cache doubles as the prefetch buffer). Like line,
// the booleans are packed into one flags byte.
type bbEntry struct {
	tag   uint64
	flags uint8 // flagValid | flagDirty | flagTemporal | flagPrefetched
}

func (e bbEntry) valid() bool      { return e.flags&flagValid != 0 }
func (e bbEntry) dirty() bool      { return e.flags&flagDirty != 0 }
func (e bbEntry) temporal() bool   { return e.flags&flagTemporal != 0 }
func (e bbEntry) prefetched() bool { return e.flags&flagPrefetched != 0 }

// invalidTag marks an empty slot in bounceBackCache.tags. A line address
// is a byte address shifted right by log2(LineSize) >= 1 bits (Validate),
// so no line address reaches it and a probe compares tags only.
const invalidTag = ^uint64(0)

// bounceBackCache is the small associative cache behind the main cache.
// With bounce-back disabled it behaves exactly as Jouppi's victim cache,
// which is how the paper keeps the silicon useful when software control is
// inactive (§2.2, "Using the Bounce-Back Cache as a Victim Cache"). The
// buffered-bypass line buffer is the same structure.
//
// assoc is the set associativity; assoc == number of entries gives the
// fully-associative organisation used in the paper (a 4-way variant
// "performs reasonably well" and is covered by an ablation bench).
//
// Replacement keeps no timestamps. Each set threads its slots on a
// circular recency ring: head is the slot to replace next, and the ring
// runs from there through the invalid slots, then the valid ones from
// least to most recently installed or touched, back to head. Installing
// or touching a slot moves it to the tail (the slot before head; when it
// is head itself, head just steps on), and invalidating one moves it to
// head. So the victim of "invalid slots first, then LRU" is head, read in
// O(1). The §4.4 quota rule needs the LRU *prefetched* entry instead; each
// set counts its prefetched entries, so the ring is walked for one only
// when the set is at its cap. The slots of a set are interchangeable
// (lookup is by tag), so only the order of the valid entries is state.
type bounceBackCache struct {
	tags       []uint64 // per slot, invalidTag when empty
	flags      []uint8  // per slot
	next, prev []int    // recency ring links, absolute slot indices
	head       []int    // per set: the slot to replace next
	prefetched []int    // per set: valid entries flagged prefetched
	sets       int
	assoc      int
	setMask    uint64 // sets-1 when sets is a power of two
	maskable   bool
}

func newBounceBackCache(entries, assoc int) *bounceBackCache {
	if assoc <= 0 || assoc > entries {
		assoc = entries // fully associative
	}
	sets := entries / assoc
	b := &bounceBackCache{
		tags:       make([]uint64, entries),
		flags:      make([]uint8, entries),
		next:       make([]int, entries),
		prev:       make([]int, entries),
		head:       make([]int, sets),
		prefetched: make([]int, sets),
		sets:       sets,
		assoc:      assoc,
		setMask:    uint64(sets - 1),
		maskable:   isPow2(sets),
	}
	for s := 0; s < sets; s++ {
		lo := s * assoc
		b.head[s] = lo
		for i := lo; i < lo+assoc; i++ {
			b.tags[i] = invalidTag
			b.next[i] = i + 1
			b.prev[i] = i - 1
		}
		b.next[lo+assoc-1] = lo
		b.prev[lo] = lo + assoc - 1
	}
	return b
}

func (b *bounceBackCache) set(la uint64) int {
	if b.maskable {
		return int(la & b.setMask)
	}
	return int(la % uint64(b.sets))
}

// lookup returns the slot holding line address la, or -1.
func (b *bounceBackCache) lookup(la uint64) int {
	lo := b.set(la) * b.assoc
	for i, t := range b.tags[lo : lo+b.assoc] {
		if t == la {
			return lo + i
		}
	}
	return -1
}

// entry returns the contents of slot i.
func (b *bounceBackCache) entry(i int) bbEntry { return bbEntry{tag: b.tags[i], flags: b.flags[i]} }

// touch marks the valid slot i as most recently used.
func (b *bounceBackCache) touch(i int) { b.toTail(b.set(b.tags[i]), i) }

// victimFor selects the slot to replace when inserting line address la:
// invalid slots first, then LRU. When insertingPrefetched is true and the
// set's resident prefetched entries have reached maxPrefetched, the LRU
// *prefetched* entry is chosen instead, even when free slots remain, so
// prefetches cannot flood the bounce-back state (§4.4: "enforce that a
// prefetched line preferably replaces other prefetched lines").
func (b *bounceBackCache) victimFor(la uint64, insertingPrefetched bool, maxPrefetched int) int {
	s := b.set(la)
	h := b.head[s]
	if insertingPrefetched && maxPrefetched > 0 && b.prefetched[s] >= maxPrefetched {
		// The count is positive, so the walk finds a prefetched entry
		// before it comes back round to head.
		i := h
		for b.flags[i]&flagPrefetched == 0 {
			i = b.next[i]
		}
		return i
	}
	return h
}

// install places a new entry into slot i as the set's most recent,
// returning the previous contents so the caller can decide whether to
// bounce it back, write it back, or discard it.
func (b *bounceBackCache) install(i int, ne bbEntry) bbEntry {
	old := b.entry(i)
	s := b.set(ne.tag)
	if old.flags&flagPrefetched != 0 {
		b.prefetched[s]--
	}
	if ne.flags&flagPrefetched != 0 {
		b.prefetched[s]++
	}
	b.tags[i] = ne.tag
	b.flags[i] = ne.flags | flagValid
	b.toTail(s, i)
	return old
}

// invalidate clears the valid slot i and makes it the set's next victim.
func (b *bounceBackCache) invalidate(i int) {
	s := b.set(b.tags[i])
	if b.flags[i]&flagPrefetched != 0 {
		b.prefetched[s]--
	}
	b.tags[i] = invalidTag
	b.flags[i] = 0
	if h := b.head[s]; i != h {
		b.unlink(i)
		b.linkBefore(i, h)
		b.head[s] = i
	}
}

// toTail moves slot i of set s to the most recent end of the ring.
func (b *bounceBackCache) toTail(s, i int) {
	h := b.head[s]
	switch {
	case i == h:
		b.head[s] = b.next[i]
	case b.prev[h] != i:
		b.unlink(i)
		b.linkBefore(i, h)
	}
}

func (b *bounceBackCache) unlink(i int) {
	p, n := b.prev[i], b.next[i]
	b.next[p] = n
	b.prev[n] = p
}

// linkBefore threads slot i into the ring just before slot h.
func (b *bounceBackCache) linkBefore(i, h int) {
	p := b.prev[h]
	b.next[p] = i
	b.prev[i] = p
	b.next[i] = h
	b.prev[h] = i
}

// countValid returns the number of valid entries.
func (b *bounceBackCache) countValid() int {
	n := 0
	for _, t := range b.tags {
		if t != invalidTag {
			n++
		}
	}
	return n
}

// countPrefetched returns the number of valid prefetched entries.
func (b *bounceBackCache) countPrefetched() int {
	n := 0
	for _, f := range b.flags {
		if f&flagPrefetched != 0 {
			n++
		}
	}
	return n
}
