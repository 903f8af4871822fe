package cache

import "fmt"

// The paper's fixed timings and structure sizes (§3.1, §5). Each has one
// value in every design the paper evaluates, so none is a Config field.
const (
	// hitCycles is the main-cache hit time.
	hitCycles = 1
	// bounceBackCycles is the bounce-back cache's access time (the
	// paper's conservative estimate).
	bounceBackCycles = 3
	// swapLockCycles is how long both caches stay locked after a swap
	// beyond the access time.
	swapLockCycles = 2
	// streamBufferDepth is the FIFO depth of each stream buffer, as in
	// Jouppi's design.
	streamBufferDepth = 4
	// bypassBufferLines is the buffered-bypass buffer capacity in lines.
	bypassBufferLines = 8
)

// BypassMode selects the bypass baseline of fig. 3a.
type BypassMode int

const (
	// BypassNone caches every reference (normal operation).
	BypassNone BypassMode = iota
	// BypassPlain sends references without the temporal hint straight to
	// memory, fetching only the referenced word and allocating nothing.
	// This is the classic bypass whose flaw — forfeited spatial locality —
	// motivates the bounce-back design.
	BypassPlain
	// BypassBuffered routes non-temporal references through a small
	// fully-associative line buffer (in the spirit of the i860's
	// pipelined load path), recovering some spatial locality.
	BypassBuffered
)

func (m BypassMode) String() string {
	switch m {
	case BypassNone:
		return "none"
	case BypassPlain:
		return "plain"
	case BypassBuffered:
		return "buffered"
	default:
		return fmt.Sprintf("BypassMode(%d)", int(m))
	}
}

// WritePolicy selects how stores interact with the cache. The paper's
// design is write-back with write-allocate (the default); write-through
// exists for the ablation benches, following the taxonomy of Jouppi's
// "Cache Write Policies and Performance" the paper cites for its write
// timing.
type WritePolicy int

const (
	// WriteBackAllocate: stores allocate on miss and dirty the line;
	// dirty victims go to the write buffer (the paper's design).
	WriteBackAllocate WritePolicy = iota
	// WriteThroughAllocate: stores allocate on miss but every store also
	// posts its word to the write buffer; lines are never dirty.
	WriteThroughAllocate
)

func (p WritePolicy) String() string {
	switch p {
	case WriteBackAllocate:
		return "write-back"
	case WriteThroughAllocate:
		return "write-through"
	default:
		return fmt.Sprintf("WritePolicy(%d)", int(p))
	}
}

// ReplacementPolicy selects the set-associative victim policy. The paper
// uses LRU everywhere ("the replacement policy of this bounce-back cache
// is LRU, as for victim caches") and discusses LRU's weakness on cyclic
// reuse; FIFO and Random exist as classic baselines for the ablations.
type ReplacementPolicy int

const (
	// ReplaceLRU is the paper's policy (default).
	ReplaceLRU ReplacementPolicy = iota
	// ReplaceFIFO evicts the oldest-filled way regardless of use.
	ReplaceFIFO
	// ReplaceRandom evicts a deterministic pseudo-random way.
	ReplaceRandom
)

func (p ReplacementPolicy) String() string {
	switch p {
	case ReplaceLRU:
		return "lru"
	case ReplaceFIFO:
		return "fifo"
	case ReplaceRandom:
		return "random"
	default:
		return fmt.Sprintf("ReplacementPolicy(%d)", int(p))
	}
}

// PrefetchConfig describes the §4.4 prefetch mechanism. Each prefetch
// action fetches one physical line (the paper's progressive prefetch for
// latencies up to ~25 cycles), and at most half the bounce-back entries
// hold prefetched lines at once: beyond that a new prefetched line
// replaces the LRU prefetched line.
type PrefetchConfig struct {
	// Enabled turns prefetching on.
	Enabled bool
	// SoftwareGuided restricts prefetch initiation to references carrying
	// the spatial hint (the paper's scheme). When false, every miss
	// initiates a next-line prefetch (the "Stand.+Prefetching" baseline).
	SoftwareGuided bool
}

// Config fully describes a simulated memory hierarchy. The zero value is
// not valid; start from one of the constructors in package core or fill in
// every field.
type Config struct {
	// CacheSize is the main cache capacity in bytes (paper default 8 KiB).
	CacheSize int
	// LineSize is the physical line size in bytes (paper default 32).
	LineSize int
	// Assoc is the main cache associativity (1 = direct mapped).
	Assoc int

	// LatencyCycles is the memory latency t_lat: the time between issuing
	// a miss request and the arrival of its first line (paper default 20).
	LatencyCycles int

	// SubblockSize enables sub-block placement (§2.1's contrast case, as
	// in the PowerPC's 64-byte lines with 32-byte subblocks): the
	// directory tracks LineSize-sized lines but data is fetched and
	// validated per subblock, so a tag-matching miss refills only the
	// missing subblock. 0 disables. Mutually exclusive with virtual
	// lines — the paper presents them as competing uses of the line size.
	SubblockSize int

	// VirtualLineSize enables the virtual-line mechanism when larger than
	// LineSize: a miss by a spatial-tagged reference fetches the whole
	// aligned virtual line. 0 disables (same as == LineSize).
	VirtualLineSize int
	// VariableVirtualLines enables the §3.2 extension: a spatial-tagged
	// reference carrying a non-zero 2-bit length hint overrides
	// VirtualLineSize with the hinted length (64/128/256 bytes). Requires
	// the virtual-line mechanism to be on.
	VariableVirtualLines bool

	// BounceBackLines is the number of lines in the bounce-back cache
	// (paper: 8 lines of 32 B = 256 B). 0 removes the structure entirely.
	BounceBackLines int
	// BounceBackAssoc is its associativity; 0 or >= BounceBackLines means
	// fully associative.
	BounceBackAssoc int
	// BounceBackEnabled activates the bounce-back of temporal lines; with
	// it false the structure is a plain victim cache.
	BounceBackEnabled bool
	// TemporalOnlyAdmission admits only temporal-tagged victims into the
	// bounce-back cache. The paper found global performance higher when
	// every victim is admitted (the default, false); the ablation bench
	// quantifies this.
	TemporalOnlyAdmission bool

	// StreamBuffers adds Jouppi-style stream buffers (§5 related work)
	// between the cache and memory: each demand miss (re)allocates the
	// LRU buffer to prefetch the following four lines; a miss matching a
	// buffer head pops the line into the cache. 0 disables the mechanism.
	StreamBuffers int

	// ColumnAssociative turns the direct-mapped cache into a
	// column-associative/pseudo-associative organisation (§5 related
	// work, [2]): a line may reside in either of two hashed locations;
	// the alternate location hits in 2 cycles and is swapped towards the
	// fast slot. Requires Assoc == 1.
	ColumnAssociative bool

	// NoCoherenceChecks disables the §2.1/§2.2 virtual-line coherence
	// mechanism (the pipelined tag checks that skip resident physical
	// lines and the bounce-back lookup): every line of a virtual fill is
	// fetched from memory regardless of residence. Exists only for the
	// ablation bench quantifying what the checks save.
	NoCoherenceChecks bool

	// Replacement selects the main cache's victim policy (default LRU,
	// the paper's choice).
	Replacement ReplacementPolicy

	// TemporalPriorityReplacement makes set-associative victim selection
	// prefer lines without the temporal bit ("simplified soft", fig. 9b).
	// Requires the LRU policy.
	TemporalPriorityReplacement bool

	// UseTemporalTags / UseSpatialTags gate the two software hints, so the
	// same tagged trace can drive Standard, Soft-temporal-only,
	// Soft-spatial-only and full Soft configurations.
	UseTemporalTags bool
	UseSpatialTags  bool

	// Writes selects the store policy (default: write-back with
	// write-allocate, the paper's design).
	Writes WritePolicy

	// Bypass selects the fig. 3a baseline behaviour.
	Bypass BypassMode

	// Prefetch configures §4.4 prefetching.
	Prefetch PrefetchConfig

	// RuntimeChecks enables the opt-in runtime invariant checker: cheap
	// accounting invariants (hits+misses == references, words-fetched
	// conservation, swap accounting) are verified after every access and
	// structural invariants (occupancy bounds, duplicate or dually-resident
	// lines, temporal bit cleared after a bounce-back) periodically. A
	// violation panics with *InvariantError, turning state corruption into
	// an immediate diagnostic instead of silently wrong figures. Costs a
	// few percent of simulation speed; off by default.
	RuntimeChecks bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.CacheSize <= 0 || !isPow2(c.CacheSize) {
		return fmt.Errorf("cache: CacheSize must be a positive power of two, got %d", c.CacheSize)
	}
	if c.LineSize <= 0 || !isPow2(c.LineSize) {
		return fmt.Errorf("cache: LineSize must be a positive power of two, got %d", c.LineSize)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache: Assoc must be positive, got %d", c.Assoc)
	}
	if c.CacheSize%(c.LineSize*c.Assoc) != 0 {
		return fmt.Errorf("cache: CacheSize %d not divisible by LineSize*Assoc %d", c.CacheSize, c.LineSize*c.Assoc)
	}
	if c.LatencyCycles < 0 {
		return fmt.Errorf("cache: negative LatencyCycles %d", c.LatencyCycles)
	}
	if c.VirtualLineSize != 0 {
		if !isPow2(c.VirtualLineSize) || c.VirtualLineSize < c.LineSize {
			return fmt.Errorf("cache: VirtualLineSize %d must be 0 or a power of two >= LineSize %d", c.VirtualLineSize, c.LineSize)
		}
	}
	if c.SubblockSize != 0 {
		if !isPow2(c.SubblockSize) || c.SubblockSize >= c.LineSize {
			return fmt.Errorf("cache: SubblockSize %d must be 0 or a power of two < LineSize %d", c.SubblockSize, c.LineSize)
		}
		if c.LineSize/c.SubblockSize > 8 {
			return fmt.Errorf("cache: at most 8 subblocks per line, got %d", c.LineSize/c.SubblockSize)
		}
		if c.VirtualLineSize > c.LineSize {
			return fmt.Errorf("cache: sub-block placement and virtual lines are mutually exclusive")
		}
		if c.BounceBackLines > 0 || c.StreamBuffers > 0 {
			return fmt.Errorf("cache: sub-block placement models the plain sectored baseline; bounce-back/stream structures are not supported with it")
		}
	}
	if c.VariableVirtualLines && c.VirtualLineSize < c.LineSize*2 {
		return fmt.Errorf("cache: VariableVirtualLines requires the virtual-line mechanism (VirtualLineSize >= 2*LineSize)")
	}
	if c.BounceBackLines < 0 {
		return fmt.Errorf("cache: negative BounceBackLines %d", c.BounceBackLines)
	}
	if c.BounceBackAssoc < 0 {
		return fmt.Errorf("cache: negative BounceBackAssoc %d", c.BounceBackAssoc)
	}
	if c.BounceBackAssoc > 0 && c.BounceBackLines%c.BounceBackAssoc != 0 {
		return fmt.Errorf("cache: BounceBackLines %d not divisible by BounceBackAssoc %d", c.BounceBackLines, c.BounceBackAssoc)
	}
	if c.Bypass != BypassNone && !c.UseTemporalTags {
		return fmt.Errorf("cache: bypass modes need UseTemporalTags (the temporal hint decides what bypasses)")
	}
	if c.Prefetch.Enabled && c.BounceBackLines == 0 {
		return fmt.Errorf("cache: prefetching uses the bounce-back cache as prefetch buffer; BounceBackLines must be > 0")
	}
	if c.StreamBuffers < 0 {
		return fmt.Errorf("cache: negative StreamBuffers %d", c.StreamBuffers)
	}
	if c.TemporalPriorityReplacement && c.Replacement != ReplaceLRU {
		return fmt.Errorf("cache: temporal-priority replacement is defined on top of LRU")
	}
	if c.ColumnAssociative {
		if c.Assoc != 1 {
			return fmt.Errorf("cache: ColumnAssociative requires a direct-mapped organisation (Assoc 1), got %d", c.Assoc)
		}
		if c.CacheSize/c.LineSize < 2 {
			return fmt.Errorf("cache: ColumnAssociative needs at least two lines")
		}
	}
	return nil
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
