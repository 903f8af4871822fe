package cache

// streamBuffer is one of Jouppi's stream buffers (§5 related work, [19]):
// a FIFO of consecutive line addresses prefetched after a miss. Only the
// head entry has a comparator; a demand miss matching the head pops it into
// the main cache and the buffer prefetches one more line at the tail.
//
// The paper's criticism — "the mechanism does not work properly if the
// number of array references within the loop body that induce
// compulsory/capacity misses is larger than the number of stream buffers" —
// falls out of this model naturally: interleaved streams thrash the LRU
// buffer allocation.
type streamBuffer struct {
	head    uint64                    // line address the head comparator watches
	readyAt [streamBufferDepth]uint64 // cycle at which each FIFO slot's line arrives
	valid   bool
	lru     uint64
}

// streamBufferSet is the collection of buffers plus its timing parameters.
type streamBufferSet struct {
	bufs     []streamBuffer
	lineSize int
	transfer int // bus cycles per line
	tick     uint64
}

func newStreamBufferSet(count, lineSize, transferCycles int) *streamBufferSet {
	return &streamBufferSet{
		bufs:     make([]streamBuffer, count),
		lineSize: lineSize,
		transfer: transferCycles,
	}
}

// probe checks every head comparator for line address la. On a hit it
// returns the buffer and the cycle its head line arrives from memory.
func (s *streamBufferSet) probe(la uint64) (*streamBuffer, uint64) {
	for i := range s.bufs {
		b := &s.bufs[i]
		if b.valid && b.head == la {
			return b, b.readyAt[0]
		}
	}
	return nil, 0
}

// pop consumes the head of buffer b (the line moved into the main cache)
// and schedules the prefetch of the next sequential line at the tail. It
// returns the line size in bytes of the new prefetch so the caller can
// account the traffic.
func (s *streamBufferSet) pop(b *streamBuffer, now uint64) int {
	s.tick++
	b.lru = s.tick
	b.head++
	copy(b.readyAt[:], b.readyAt[1:])
	last := now
	if n := len(b.readyAt); n > 1 && b.readyAt[n-2] > last {
		last = b.readyAt[n-2]
	}
	b.readyAt[len(b.readyAt)-1] = last + uint64(s.transfer)
	return s.lineSize
}

// allocate (re)assigns the LRU buffer to a new stream starting after the
// missed line la, with the i-th slot arriving latency + (i+1) transfers
// after now. It returns the prefetch traffic in bytes.
func (s *streamBufferSet) allocate(la uint64, now uint64, latency int) int {
	var victim *streamBuffer
	for i := range s.bufs {
		b := &s.bufs[i]
		if !b.valid {
			victim = b
			break
		}
		if victim == nil || b.lru < victim.lru {
			victim = b
		}
	}
	if victim == nil {
		return 0
	}
	s.tick++
	victim.head = la + 1
	victim.valid = true
	victim.lru = s.tick
	for i := 0; i < streamBufferDepth; i++ {
		victim.readyAt[i] = now + uint64(latency) + uint64((i+1)*s.transfer)
	}
	return streamBufferDepth * s.lineSize
}

// contains reports whether any slot of any buffer already covers la (used
// to avoid duplicate fills).
func (s *streamBufferSet) contains(la uint64) bool {
	for i := range s.bufs {
		b := &s.bufs[i]
		if !b.valid {
			continue
		}
		if la >= b.head && la < b.head+uint64(streamBufferDepth) {
			return true
		}
	}
	return false
}

// invalidate drops any buffer whose stream covers la (coherence on
// writes: the buffered copy would be stale).
func (s *streamBufferSet) invalidate(la uint64) {
	for i := range s.bufs {
		b := &s.bufs[i]
		if b.valid && la >= b.head && la < b.head+uint64(streamBufferDepth) {
			b.valid = false
		}
	}
}
