// Package mem models the memory side of the hierarchy: a fixed-latency
// pipelined main memory behind a bus of finite width, and a write buffer
// that absorbs dirty victims.
//
// The model matches the paper's accounting (§2.1): fetching n physical lines
// of LS bytes costs t_lat + n*LS/w_b cycles, i.e. the latency is paid once
// and the bus then streams the lines back-to-back. Dirty-victim transfers to
// the write buffer cost 2 cycles each and proceed while the miss request is
// outstanding; only the portion that does not fit under the latency extends
// the stall.
package mem

// The paper's memory-side constants (§2.1, §3.1).
const (
	// BusBytesPerCycle is the memory bus bandwidth w_b.
	BusBytesPerCycle = 16
	// writeBufferEntries is the capacity of the write buffer; the paper
	// assumes a small buffer and aborts bounce-backs onto dirty lines when
	// it is full.
	writeBufferEntries = 8
	// victimTransferCycles is the cost of moving one dirty line to the
	// write buffer.
	victimTransferCycles = 2
)

// Stats accumulates memory-side counters.
type Stats struct {
	// BytesFetched is the total number of bytes read from memory.
	BytesFetched uint64
	// LinesFetched is the number of physical lines read from memory.
	LinesFetched uint64
	// Requests is the number of distinct miss requests (a virtual-line
	// fill is one request even when it fetches several lines).
	Requests uint64
	// Writebacks is the number of dirty lines sent to the write buffer.
	Writebacks uint64
	// WritebackStallCycles is the added stall when victim transfers did
	// not fit under the miss latency.
	WritebackStallCycles uint64
	// WriteBufferFullAborts counts operations (bounce-backs onto dirty
	// lines) abandoned because the write buffer was full.
	WriteBufferFullAborts uint64
	// BytesWritten counts write-through traffic posted to memory.
	BytesWritten uint64
	// WriteThroughStalls counts stores that found the write buffer full
	// and had to wait for it to drain.
	WriteThroughStalls uint64
}

// System is the memory + bus + write buffer model. It is not a data store:
// the simulator is trace-driven and only timing and traffic are modelled.
type System struct {
	latency int // t_lat: cycles from a miss request to its first line
	// pending is the current write-buffer occupancy. The buffer drains
	// one entry per miss request that reaches memory (a coarse but
	// adequate drain model: the bus is otherwise idle between misses) and,
	// for write-through posting, by elapsed bus time (see PostWrite).
	pending   int
	lastDrain uint64 // cycle of the last time-based drain
	stats     Stats
}

// NewSystem builds a memory system whose miss requests see latency cycles
// (t_lat, the paper's default is 20) before their first line arrives. The
// latency must be non-negative.
func NewSystem(latency int) *System { return &System{latency: latency} }

// ResetStats clears the accumulated counters; write-buffer occupancy and
// drain state are preserved (they are machine state, not statistics).
func (s *System) ResetStats() { s.stats = Stats{} }

// Stats returns a copy of the accumulated counters.
func (s *System) Stats() Stats { return s.stats }

// TransferCycles returns the bus time for n bytes, rounding up to whole
// cycles.
func (s *System) TransferCycles(bytes int) int {
	if bytes <= 0 {
		return 0
	}
	return (bytes + BusBytesPerCycle - 1) / BusBytesPerCycle
}

// Fetch models a miss request that reads the given physical lines from
// memory while sending dirtyVictims lines to the write buffer. lineBytes is
// the physical line size; lines is the number of lines actually fetched
// (after coherence checks); extraBytes covers odd-sized transfers such as a
// single bypassed word. It returns the miss penalty in cycles (excluding
// the 1-cycle cache probe that discovered the miss).
func (s *System) Fetch(lines, lineBytes, extraBytes, dirtyVictims int) int {
	s.stats.Requests++
	bytes := lines*lineBytes + extraBytes
	s.stats.BytesFetched += uint64(bytes)
	s.stats.LinesFetched += uint64(lines)

	penalty := s.latency + s.TransferCycles(bytes)

	// Victim transfers proceed while the request is outstanding; only the
	// excess beyond the latency window extends the stall (paper §2.1).
	if dirtyVictims > 0 {
		s.stats.Writebacks += uint64(dirtyVictims)
		transfer := dirtyVictims * victimTransferCycles
		if transfer > s.latency {
			extra := transfer - s.latency
			penalty += extra
			s.stats.WritebackStallCycles += uint64(extra)
		}
		s.bufferPut(dirtyVictims)
	}

	// Each request gives the write buffer a chance to drain.
	if s.pending > 0 {
		s.pending--
	}
	return penalty
}

// PrefetchFetch accounts for lines fetched by the prefetch engine. The
// processor does not wait for them (they ride the idle bus behind a miss or
// a swap), so no penalty is returned, but the traffic is real and shows up
// in fig. 7a-style measurements.
func (s *System) PrefetchFetch(lines, lineBytes int) {
	s.stats.BytesFetched += uint64(lines * lineBytes)
	s.stats.LinesFetched += uint64(lines)
}

// PostWrite records a write-through store of the given size at cycle now.
// The write buffer drains one entry per victimTransferCycles of elapsed
// time (the bus is free between misses); a store finding it full waits one
// transfer for a slot and that stall is returned in cycles.
func (s *System) PostWrite(bytes int, now uint64) int {
	s.stats.BytesWritten += uint64(bytes)
	// Time-based drain. The drain clock advances by the whole transfers
	// it drained, so the remainder of an odd gap counts towards the next.
	if now > s.lastDrain {
		drained := int(now-s.lastDrain) / victimTransferCycles
		if drained > 0 {
			s.pending -= drained
			if s.pending < 0 {
				s.pending = 0
			}
			s.lastDrain += uint64(drained * victimTransferCycles)
		}
	}
	s.stats.Writebacks++
	if s.pending >= writeBufferEntries {
		s.stats.WriteThroughStalls++
		return victimTransferCycles
	}
	s.pending++
	return 0
}

// WritebackOutsideMiss records a dirty line sent to the write buffer outside
// a miss window (e.g. a bounce-back evicting a dirty main-cache line). It
// returns false if the write buffer is full, in which case the caller must
// abort the operation (paper §2.2: "the transfer is aborted if the write
// buffer is full").
func (s *System) WritebackOutsideMiss() bool {
	if s.pending >= writeBufferEntries {
		s.stats.WriteBufferFullAborts++
		return false
	}
	s.pending++
	s.stats.Writebacks++
	return true
}

// WriteBufferOccupancy returns the current number of buffered writebacks.
func (s *System) WriteBufferOccupancy() int { return s.pending }

func (s *System) bufferPut(n int) {
	s.pending += n
	if s.pending > writeBufferEntries {
		// Overflow during a miss is already accounted for by the stall
		// model; clamp occupancy to capacity.
		s.pending = writeBufferEntries
	}
}
