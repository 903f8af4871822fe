// Package trace defines the memory-reference trace format shared by every
// component of the repository: the workload generators produce traces, the
// cache simulator consumes them, and the metrics package characterises them.
//
// A trace entry corresponds to one dynamic execution of one load/store
// instruction. Following the paper (§3.1), each entry carries, besides the
// address and read/write direction, the two software locality hints
// (temporal bit, spatial bit) and the number of cycles elapsed since the
// previous entry. The time gap is generated when the trace is produced, not
// when it is simulated, so that repeated simulations of the same trace are
// bit-identical (paper, footnote 8).
package trace

import "fmt"

// Record is one dynamic memory reference.
type Record struct {
	// Addr is the byte address of the first byte referenced.
	Addr uint64
	// RefID identifies the static reference site (the load/store
	// instruction) that issued this access. Vector-length analysis
	// (fig. 1b) groups accesses by RefID. Zero means "unknown site".
	RefID uint32
	// Gap is the number of cycles between the issue of the previous
	// reference and this one (at least 1 for every entry but the first,
	// which may be 0).
	Gap uint8
	// Size is the number of bytes referenced (8 for a double).
	Size uint8
	// Write is true for stores.
	Write bool
	// Temporal is the software temporal-locality hint carried by the
	// load/store instruction.
	Temporal bool
	// Spatial is the software spatial-locality hint.
	Spatial bool
	// VirtualHint is the optional 2-bit virtual-line length hint of the
	// §3.2 variable-length extension: 0 selects the design's default
	// virtual line, 1/2/3 request 64/128/256 bytes. Only meaningful when
	// Spatial is set.
	VirtualHint uint8
	// SoftwarePrefetch marks an explicit (non-binding, non-blocking)
	// prefetch instruction inserted by the compiler (§4.4: the prefetch
	// buffer and distinctive load/store instructions the mechanism needs
	// are already part of the design). It occupies an issue slot but the
	// processor never waits for its data, and it is excluded from the
	// AMAT denominator.
	SoftwarePrefetch bool
}

// EncodeVirtualHint converts a requested virtual-line length in bytes to
// the 2-bit hint code (0 = default for unknown or out-of-range lengths).
func EncodeVirtualHint(bytes int) uint8 {
	switch bytes {
	case 64:
		return 1
	case 128:
		return 2
	case 256:
		return 3
	default:
		return 0
	}
}

// VirtualHintBytes converts a hint code back to bytes (0 = default).
func VirtualHintBytes(code uint8) int {
	switch code {
	case 1:
		return 64
	case 2:
		return 128
	case 3:
		return 256
	default:
		return 0
	}
}

func (r Record) String() string {
	dir := "R"
	if r.Write {
		dir = "W"
	}
	if r.SoftwarePrefetch {
		dir = "P"
	}
	t, s := "-", "-"
	if r.Temporal {
		t = "T"
	}
	if r.Spatial {
		s = "S"
	}
	return fmt.Sprintf("%s 0x%08x sz=%d ref=%d gap=%d %s%s", dir, r.Addr, r.Size, r.RefID, r.Gap, t, s)
}

// Trace is an in-memory sequence of records with a name for reporting.
type Trace struct {
	Name    string
	Records []Record
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// Append adds a record.
func (t *Trace) Append(r Record) { t.Records = append(t.Records, r) }

// TagCounts summarises how many records fall into each of the four tag
// classes (fig. 4a).
type TagCounts struct {
	None         int // no temporal, no spatial
	SpatialOnly  int
	TemporalOnly int
	Both         int
}

// Total returns the number of records counted.
func (c TagCounts) Total() int { return c.None + c.SpatialOnly + c.TemporalOnly + c.Both }

// CountTags classifies every record of the trace.
func (t *Trace) CountTags() TagCounts {
	var c TagCounts
	c.AddRecords(t.Records)
	return c
}

// AddRecords accumulates the classification of recs into c, so streaming
// consumers can tally tags batch by batch without materialising a trace.
func (c *TagCounts) AddRecords(recs []Record) {
	for i := range recs {
		r := &recs[i]
		switch {
		case r.Temporal && r.Spatial:
			c.Both++
		case r.Temporal:
			c.TemporalOnly++
		case r.Spatial:
			c.SpatialOnly++
		default:
			c.None++
		}
	}
}
