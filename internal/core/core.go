// Package core is the public face of the software-assisted cache library.
// It ties together the trace format, the cache/memory model and the
// canonical configurations evaluated in the paper, so that a user can write
//
//	job := core.Job{Configs: []core.Config{core.Standard(), core.Soft()}}
//	results, err := core.Run(ctx, job, tr.Reader())
//	if err != nil {
//		return err
//	}
//	fmt.Println(results[0].AMAT(), results[1].AMAT())
//
// without touching the lower layers. Run is the one way to simulate: any
// number of configurations over one pass of any trace source, in-memory
// (Trace.Reader) or streamed from a file (trace.OpenFile) or a generator
// (tracegen.NewReader), with an optional warmup prefix. The configuration
// constructors mirror the paper's named design points:
//
//	Standard()        8 KiB direct-mapped, 32 B lines — the DEC Alpha /
//	                  R4000 / Pentium-class baseline ("Stand.")
//	Soft()            Standard + 64 B virtual lines + 256 B bounce-back
//	                  cache, both hints active ("Soft.")
//	SoftTemporal()    bounce-back only ("Soft. for Temp. only")
//	SoftSpatial()     virtual lines only ("Soft. for Spat. only")
//	Victim()          Standard + 256 B victim cache (fig. 3b)
//	BypassPlain()     classic bypass (fig. 3a)
//	BypassBuffered()  bypass through a small line buffer (fig. 3a)
//	SetAssoc(n)       n-way variants of the above (fig. 9b)
//
// plus the extensions and related-work baselines: SoftVariable() (§3.2
// variable-length virtual lines), StandardStreamBuffers() and
// ColumnAssociative() (§5), Subblocked() (§2.1's contrast case), and the
// WithPrefetch/WithWritePolicy/WithLatency/WithGeometry modifiers.
package core

import (
	"context"
	"fmt"

	"softcache/internal/cache"
	"softcache/internal/trace"
)

// Paper-wide default parameters (§3.1, "Notations and Parameters"). The
// parameters no figure varies (hit, bounce-back and swap-lock times, bus
// width, write buffer) are constants of packages cache and mem.
const (
	DefaultCacheSize   = 8 * 1024
	DefaultLineSize    = 32
	DefaultVirtualLine = 64
	DefaultBounceBack  = 8 // lines (256 bytes of 32-byte lines)
	DefaultLatency     = 20
)

// Config is re-exported so callers only import core.
type Config = cache.Config

// Result bundles the statistics of one simulation.
type Result struct {
	Trace  string
	Config string
	Stats  cache.Stats
}

// AMAT returns the average memory access time of the run.
func (r Result) AMAT() float64 { return r.Stats.AMAT() }

// MissRatio returns the run's miss ratio.
func (r Result) MissRatio() float64 { return r.Stats.MissRatio() }

func baseConfig() Config {
	return Config{
		CacheSize:     DefaultCacheSize,
		LineSize:      DefaultLineSize,
		Assoc:         1,
		LatencyCycles: DefaultLatency,
	}
}

// Standard returns the baseline cache of the paper ("Stand.").
func Standard() Config { return baseConfig() }

// Victim returns Standard plus a 256-byte victim cache (bounce-back
// structure with the bounce-back mechanism disabled).
func Victim() Config {
	c := baseConfig()
	c.BounceBackLines = DefaultBounceBack
	return c
}

// Soft returns the full software-assisted design ("Soft."): 64-byte virtual
// lines plus the 256-byte bounce-back cache, both hints honoured.
func Soft() Config {
	c := Victim()
	c.BounceBackEnabled = true
	c.VirtualLineSize = DefaultVirtualLine
	c.UseTemporalTags = true
	c.UseSpatialTags = true
	return c
}

// SoftVariable returns the §3.2 extension of Soft: spatial references carry
// a 2-bit length hint and the cache fetches 64-, 128- or 256-byte virtual
// lines accordingly (references without a hint use the 64-byte default).
func SoftVariable() Config {
	c := Soft()
	c.VariableVirtualLines = true
	return c
}

// SoftTemporal returns the temporal-only design (bounce-back cache active,
// no virtual lines).
func SoftTemporal() Config {
	c := Soft()
	c.VirtualLineSize = 0
	c.UseSpatialTags = false
	return c
}

// SoftSpatial returns the spatial-only design (virtual lines active, the
// on-chip buffer demoted to a plain victim cache).
func SoftSpatial() Config {
	c := Soft()
	c.BounceBackEnabled = false
	c.UseTemporalTags = false
	return c
}

// StandardStreamBuffers returns Standard plus Jouppi-style stream buffers
// (§5 related work): four buffers of depth four, the configuration of the
// original paper.
func StandardStreamBuffers() Config {
	c := baseConfig()
	c.StreamBuffers = 4
	return c
}

// ColumnAssociative returns the §5 related-work column-associative
// organisation: a direct-mapped cache whose lines may also live at a
// second, slower hashed location.
func ColumnAssociative() Config {
	c := baseConfig()
	c.ColumnAssociative = true
	return c
}

// Subblocked returns the §2.1 contrast case to virtual lines: a cache with
// 64-byte physical lines sectored into 32-byte subblocks (the PowerPC
// organisation §3.2 cites). The directory is half the size of a 32-byte-
// line cache's, but misses refill only the referenced subblock.
func Subblocked() Config {
	c := baseConfig()
	c.LineSize = 2 * DefaultLineSize
	c.SubblockSize = DefaultLineSize
	return c
}

// BypassPlain returns the classic-bypass baseline of fig. 3a: references
// without the temporal hint go straight to memory, word by word.
func BypassPlain() Config {
	c := baseConfig()
	c.Bypass = cache.BypassPlain
	c.UseTemporalTags = true
	return c
}

// BypassBuffered returns the bypass-through-a-buffer baseline of fig. 3a.
func BypassBuffered() Config {
	c := BypassPlain()
	c.Bypass = cache.BypassBuffered
	return c
}

// SetAssoc converts cfg to an n-way organisation of the same capacity.
func SetAssoc(cfg Config, ways int) Config {
	cfg.Assoc = ways
	return cfg
}

// SimplifiedSoftAssoc returns the fig. 9b "simplified soft" design: an
// n-way cache with virtual lines and temporal-priority LRU replacement but
// no bounce-back cache.
func SimplifiedSoftAssoc(ways int) Config {
	c := baseConfig()
	c.Assoc = ways
	c.VirtualLineSize = DefaultVirtualLine
	c.UseSpatialTags = true
	c.UseTemporalTags = true
	c.TemporalPriorityReplacement = true
	return c
}

// WithPrefetch enables §4.4 prefetching on cfg. softwareGuided selects the
// paper's hint-driven scheme; false prefetches on every miss. The
// configuration must include a bounce-back structure (it is the prefetch
// buffer); for Standard-like configs a victim-cache-sized buffer is added
// automatically.
func WithPrefetch(cfg Config, softwareGuided bool) Config {
	if cfg.BounceBackLines == 0 {
		cfg.BounceBackLines = DefaultBounceBack
	}
	cfg.Prefetch = cache.PrefetchConfig{Enabled: true, SoftwareGuided: softwareGuided}
	return cfg
}

// WithWritePolicy sets the store policy (default write-back/allocate).
func WithWritePolicy(cfg Config, p cache.WritePolicy) Config {
	cfg.Writes = p
	return cfg
}

// WithLatency sets the memory latency in cycles.
func WithLatency(cfg Config, cycles int) Config {
	cfg.LatencyCycles = cycles
	return cfg
}

// WithGeometry sets cache size, physical line size and virtual line size
// (virtual 0 keeps the mechanism off).
func WithGeometry(cfg Config, cacheSize, lineSize, virtualLine int) Config {
	cfg.CacheSize = cacheSize
	cfg.LineSize = lineSize
	cfg.VirtualLineSize = virtualLine
	return cfg
}

// NewSimulator builds a simulator for cfg.
func NewSimulator(cfg Config) (*cache.Simulator, error) { return cache.New(cfg) }

// WithRuntimeChecks returns cfg with the runtime invariant checker toggled
// (see cache.Config.RuntimeChecks): state corruption then surfaces as an
// immediate *cache.InvariantError panic, which the experiment harness
// converts into a structured failed-run record.
func WithRuntimeChecks(cfg Config, on bool) Config {
	cfg.RuntimeChecks = on
	return cfg
}

// Job is one simulation: the configurations fused over one pass of the
// trace, and how many leading records only warm the caches (a warmup at
// least as long as the trace leaves empty statistics).
type Job struct {
	Configs []Config
	Warmup  int
}

// Run is the simulation entry point: one pass of r through trace.Each
// drives a fresh simulator per configuration, each batch fed to every
// simulator before the next is read, so a configuration matrix pays the
// trace decode once.
// The results are index-aligned with job.Configs and identical to one Run
// per configuration. r is Trace.Reader for an in-memory trace, or any
// streamed source (trace.OpenFile, tracegen.NewReader), which is never
// materialised. The loop allocates nothing in steady state.
//
// Once job.Warmup records have run, the batch is split there and every
// simulator's statistics are reset, excluding cold misses. ctx is polled
// once per batch; on cancellation or a read error the partial results are
// discarded and the error is returned wrapped.
func Run(ctx context.Context, job Job, r trace.BatchReader) ([]Result, error) {
	if job.Warmup < 0 {
		return nil, fmt.Errorf("core: negative warmup %d", job.Warmup)
	}
	sims, err := buildSimulators(job.Configs)
	if err != nil {
		return nil, err
	}
	warm := job.Warmup // records left before the statistics reset
	err = trace.Each(ctx, r, func(recs []trace.Record) error {
		if warm > 0 {
			k := min(warm, len(recs))
			for _, sim := range sims {
				sim.AccessAll(recs[:k])
				if k == warm {
					sim.ResetStats()
				}
			}
			recs, warm = recs[k:], warm-k
		}
		for _, sim := range sims {
			sim.AccessAll(recs)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: simulating %s: %w", r.Name(), err)
	}
	if warm > 0 { // the warmup outlasted the trace
		for _, sim := range sims {
			sim.ResetStats()
		}
	}
	return manyResults(r.Name(), job.Configs, sims), nil
}

// SimulateContext is a one-config Run over an in-memory trace, kept only
// for the benchmark harness (benchmark/layers.go). New code calls Run.
func SimulateContext(ctx context.Context, cfg Config, t *trace.Trace) (Result, error) {
	results, err := Run(ctx, Job{Configs: []Config{cfg}}, t.Reader())
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// SimulateManyTrace is Run over an in-memory trace, kept only for the
// benchmark harness (benchmark/layers.go). New code calls Run.
func SimulateManyTrace(ctx context.Context, cfgs []Config, t *trace.Trace) ([]Result, error) {
	return Run(ctx, Job{Configs: cfgs}, t.Reader())
}

// buildSimulators constructs one fresh simulator per configuration. Any
// invalid configuration fails the whole matrix up front, before a single
// record is consumed.
func buildSimulators(cfgs []Config) ([]*cache.Simulator, error) {
	sims := make([]*cache.Simulator, len(cfgs))
	for i, cfg := range cfgs {
		sim, err := cache.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: config %d (%s): %w", i, Describe(cfg), err)
		}
		sims[i] = sim
	}
	return sims, nil
}

func manyResults(traceName string, cfgs []Config, sims []*cache.Simulator) []Result {
	out := make([]Result, len(sims))
	for i, sim := range sims {
		out[i] = Result{Trace: traceName, Config: Describe(cfgs[i]), Stats: sim.Stats()}
	}
	return out
}

// Describe renders a short human-readable identifier for cfg.
func Describe(cfg Config) string {
	s := fmt.Sprintf("%dK/%dB/%d-way", cfg.CacheSize/1024, cfg.LineSize, cfg.Assoc)
	if cfg.VirtualLineSize > cfg.LineSize {
		if cfg.VariableVirtualLines {
			s += "+vlvar"
		} else {
			s += fmt.Sprintf("+vl%d", cfg.VirtualLineSize)
		}
	}
	if cfg.BounceBackLines > 0 {
		if cfg.BounceBackEnabled {
			s += fmt.Sprintf("+bb%d", cfg.BounceBackLines)
		} else {
			s += fmt.Sprintf("+vc%d", cfg.BounceBackLines)
		}
	}
	if cfg.TemporalPriorityReplacement {
		s += "+tpr"
	}
	if cfg.StreamBuffers > 0 {
		s += fmt.Sprintf("+sb%d", cfg.StreamBuffers)
	}
	if cfg.ColumnAssociative {
		s += "+colassoc"
	}
	if cfg.SubblockSize > 0 {
		s += fmt.Sprintf("+sub%d", cfg.SubblockSize)
	}
	switch cfg.Bypass {
	case cache.BypassPlain:
		s += "+bypass"
	case cache.BypassBuffered:
		s += "+bypassbuf"
	}
	if cfg.Prefetch.Enabled {
		if cfg.Prefetch.SoftwareGuided {
			s += "+pf(sw)"
		} else {
			s += "+pf"
		}
	}
	return s
}
