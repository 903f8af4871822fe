package core

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"softcache/internal/cache"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

// TestCanonicalConfigsValidate: every named design point must build.
func TestCanonicalConfigsValidate(t *testing.T) {
	cfgs := map[string]Config{
		"standard":        Standard(),
		"victim":          Victim(),
		"soft":            Soft(),
		"soft-temporal":   SoftTemporal(),
		"soft-spatial":    SoftSpatial(),
		"bypass":          BypassPlain(),
		"bypass-buffer":   BypassBuffered(),
		"2way":            SetAssoc(Standard(), 2),
		"soft-2way":       SetAssoc(Soft(), 2),
		"simplified-2way": SimplifiedSoftAssoc(2),
		"soft-prefetch":   WithPrefetch(Soft(), true),
		"stand-prefetch":  WithPrefetch(Standard(), false),
		"latency5":        WithLatency(Soft(), 5),
		"geom":            WithGeometry(Soft(), 64<<10, 64, 128),
		"soft-variable":   SoftVariable(),
		"stream-buffers":  StandardStreamBuffers(),
		"column-assoc":    ColumnAssociative(),
		"write-through":   WithWritePolicy(Soft(), cache.WriteThroughAllocate),
		"subblocked":      Subblocked(),
	}
	for name, cfg := range cfgs {
		if _, err := NewSimulator(cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestConfigSemantics(t *testing.T) {
	if Standard().BounceBackLines != 0 {
		t.Fatal("Standard must have no bounce-back structure")
	}
	if v := Victim(); !(!v.BounceBackEnabled && v.BounceBackLines > 0) {
		t.Fatal("Victim = bounce-back structure with the mechanism off")
	}
	s := Soft()
	if !s.BounceBackEnabled || !s.UseTemporalTags || !s.UseSpatialTags || s.VirtualLineSize != DefaultVirtualLine {
		t.Fatalf("Soft misconfigured: %+v", s)
	}
	st := SoftTemporal()
	if st.UseSpatialTags || st.VirtualLineSize != 0 {
		t.Fatal("SoftTemporal must disable the spatial mechanism")
	}
	ss := SoftSpatial()
	if ss.UseTemporalTags || ss.BounceBackEnabled {
		t.Fatal("SoftSpatial must disable the temporal mechanism")
	}
	sim := SimplifiedSoftAssoc(2)
	if sim.BounceBackLines != 0 || !sim.TemporalPriorityReplacement {
		t.Fatal("Simplified design: no bounce-back cache, priority replacement")
	}
	pf := WithPrefetch(Standard(), false)
	if !pf.Prefetch.Enabled || pf.BounceBackLines == 0 {
		t.Fatal("WithPrefetch must provide a prefetch buffer")
	}
}

func TestDescribe(t *testing.T) {
	cases := map[string]string{
		Describe(Standard()):                 "8K/32B/1-way",
		Describe(Soft()):                     "+vl64",
		Describe(Victim()):                   "+vc8",
		Describe(BypassPlain()):              "+bypass",
		Describe(BypassBuffered()):           "+bypassbuf",
		Describe(SimplifiedSoftAssoc(2)):     "+tpr",
		Describe(WithPrefetch(Soft(), true)): "+pf(sw)",
		Describe(SoftVariable()):             "+vlvar",
		Describe(StandardStreamBuffers()):    "+sb4",
		Describe(ColumnAssociative()):        "+colassoc",
		Describe(Subblocked()):               "+sub32",
	}
	for got, want := range cases {
		if !strings.Contains(got, want) {
			t.Errorf("Describe = %q, want substring %q", got, want)
		}
	}
	if !strings.Contains(Describe(Soft()), "+bb8") {
		t.Error("Soft description should mention the bounce-back cache")
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	tr, err := workloads.Trace("MV", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOne(Soft(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != "MV" || res.AMAT() < 1 || res.MissRatio() <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if _, err := runOne(Config{}, tr); err == nil {
		t.Fatal("zero config must be rejected")
	}
}

// TestSoftIsSafe is the paper's central safety claim ("software-assisted
// data caches perform better than standard caches in any case") asserted
// across the whole suite at test scale.
func TestSoftIsSafe(t *testing.T) {
	for _, name := range workloads.Benchmarks() {
		tr, err := workloads.Trace(name, workloads.ScaleTest, 1)
		if err != nil {
			t.Fatal(err)
		}
		std, err := runOne(Standard(), tr)
		if err != nil {
			t.Fatal(err)
		}
		for label, cfg := range map[string]Config{
			"Soft":     Soft(),
			"SoftTemp": SoftTemporal(),
			"SoftSpat": SoftSpatial(),
		} {
			res, err := runOne(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if res.AMAT() > std.AMAT()*1.01 {
				t.Errorf("%s on %s: AMAT %.3f vs standard %.3f — not safe",
					label, name, res.AMAT(), std.AMAT())
			}
		}
	}
}

// TestStrippedTagsEqualStandardBehaviour: running Soft on a tag-stripped
// trace must equal running it with the tag gates off — two paths to the
// same semantics.
func TestStrippedTagsEqualStandardBehaviour(t *testing.T) {
	tr, err := workloads.Trace("DYF", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	stripped, err := runOne(Soft(), tr.StripTags(true, true))
	if err != nil {
		t.Fatal(err)
	}
	gated := Soft()
	gated.UseTemporalTags = false
	gated.UseSpatialTags = false
	gatedRes, err := runOne(gated, tr)
	if err != nil {
		t.Fatal(err)
	}
	if stripped.Stats.CostCycles != gatedRes.Stats.CostCycles ||
		stripped.Stats.Misses != gatedRes.Stats.Misses {
		t.Fatalf("stripped %+v vs gated %+v", stripped.Stats, gatedRes.Stats)
	}
}

// TestVictimEqualsSoftWithoutTags: with no tags active, the Soft hierarchy
// degenerates to Standard+Victim exactly (§2.2: the bounce-back cache is
// then used as a victim cache).
func TestVictimEqualsSoftWithoutTags(t *testing.T) {
	tr, err := workloads.Trace("MV", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	soft := Soft()
	soft.UseTemporalTags = false
	soft.UseSpatialTags = false
	soft.BounceBackEnabled = false
	a, err := runOne(soft, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOne(Victim(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.CostCycles != b.Stats.CostCycles {
		t.Fatalf("degenerate Soft %.4f != Victim %.4f", a.AMAT(), b.AMAT())
	}
}

// TestMetamorphicOracles checks relations that hold between runs without
// consulting either simulator's reading of the paper, over every
// test-scale workload through Run:
//
//   - a virtual line as long as the physical line fetches nothing extra,
//     so Standard with spatial tags honoured equals Standard, and Soft
//     equals SoftTemporal;
//   - a direct-mapped or set-associative cache indexes by address modulo
//     its size, so adding k x CacheSize to every address changes no
//     statistic of any named design.
func TestMetamorphicOracles(t *testing.T) {
	stdVL := Standard()
	stdVL.VirtualLineSize = stdVL.LineSize
	stdVL.UseSpatialTags = true
	softVL := Soft()
	softVL.VirtualLineSize = softVL.LineSize
	pairs := []struct {
		name      string
		got, want Config
	}{
		{"Standard+vline=line", stdVL, Standard()},
		{"Soft+vline=line", softVL, SoftTemporal()},
	}
	named := []Config{
		Standard(), Victim(), Soft(), SoftTemporal(), SoftSpatial(),
		SoftVariable(), BypassPlain(), BypassBuffered(),
		SetAssoc(Standard(), 2), SimplifiedSoftAssoc(4),
		StandardStreamBuffers(), ColumnAssociative(), Subblocked(),
		WithPrefetch(Soft(), true), WithPrefetch(Standard(), false),
	}
	run := func(tr *trace.Trace, cfgs []Config) []Result {
		t.Helper()
		res, err := Run(context.Background(), Job{Configs: cfgs}, tr.Reader())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, w := range workloads.Names() {
		tr, err := workloads.Trace(w, workloads.ScaleTest, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			res := run(tr, []Config{p.got, p.want})
			if res[0].Stats != res[1].Stats {
				t.Errorf("%s on %s: %+v\nwant %+v", p.name, w, res[0].Stats, res[1].Stats)
			}
		}
		base := run(tr, named)
		for _, k := range []uint64{1, 3} {
			shift := k * DefaultCacheSize
			moved := &trace.Trace{Name: tr.Name, Records: make([]trace.Record, len(tr.Records))}
			for i, r := range tr.Records {
				r.Addr += shift
				moved.Records[i] = r
			}
			for i, res := range run(moved, named) {
				if named[i].CacheSize != DefaultCacheSize {
					t.Fatalf("%s: cache size %d, shift assumes %d", Describe(named[i]), named[i].CacheSize, DefaultCacheSize)
				}
				if res.Stats != base[i].Stats {
					t.Errorf("%s on %s, addresses + %d: %+v\nwant %+v", Describe(named[i]), w, shift, res.Stats, base[i].Stats)
				}
			}
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{Stats: cache.Stats{References: 10, CostCycles: 25, Misses: 2}}
	if r.AMAT() != 2.5 || r.MissRatio() != 0.2 {
		t.Fatalf("helpers broken: %+v", r)
	}
}

// TestSimulateStreamMatchesInMemory: Run over a serialised trace must
// produce byte-identical statistics to Run over the same trace in memory.
func TestSimulateStreamMatchesInMemory(t *testing.T) {
	tr, err := workloads.Trace("SpMV", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	results, err := Run(context.Background(), Job{Configs: []Config{Soft()}}, r)
	if err != nil {
		t.Fatal(err)
	}
	streamed := results[0]
	inMemory, err := runOne(Soft(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Stats != inMemory.Stats {
		t.Fatalf("streamed %+v\nin-memory %+v", streamed.Stats, inMemory.Stats)
	}
	if streamed.Trace != "SpMV" {
		t.Fatalf("trace name lost: %q", streamed.Trace)
	}
}

// TestSeedStability: the trace seed only drives issue gaps, which modulate
// structural stalls, not hits and misses — so AMAT must be nearly
// insensitive to it (a guard against accidental seed-dependence of
// addresses or tags).
func TestSeedStability(t *testing.T) {
	for _, name := range []string{"MV", "DYF", "SpMV"} {
		var amats []float64
		for seed := uint64(1); seed <= 3; seed++ {
			tr, err := workloads.Trace(name, workloads.ScaleTest, seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runOne(Soft(), tr)
			if err != nil {
				t.Fatal(err)
			}
			amats = append(amats, res.AMAT())
		}
		for _, a := range amats[1:] {
			if d := (a - amats[0]) / amats[0]; d > 0.02 || d < -0.02 {
				t.Fatalf("%s: AMAT unstable across seeds: %v", name, amats)
			}
		}
	}
}

// runOne is Run with one configuration over an in-memory trace.
func runOne(cfg Config, tr *trace.Trace) (Result, error) {
	return runWarm(cfg, tr, 0)
}

// runWarm is runOne with a warmup prefix.
func runWarm(cfg Config, tr *trace.Trace, warmup int) (Result, error) {
	results, err := Run(context.Background(), Job{Configs: []Config{cfg}, Warmup: warmup}, tr.Reader())
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// TestSimulateWarm: warm-cache measurement must exclude the cold misses.
// Two identical passes over a cache-fitting array: the cold pass misses on
// every line, the warm pass not at all.
func TestSimulateWarm(t *testing.T) {
	tr := &trace.Trace{Name: "twopass"}
	const words = 256 // 2 KiB, fits the 8 KiB cache
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < words; i++ {
			tr.Append(trace.Record{Addr: 0x10000 + uint64(8*i), Size: 8, Gap: 1})
		}
	}
	cold, err := runOne(Standard(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Misses == 0 {
		t.Fatal("cold pass should miss")
	}
	warm, err := runWarm(Standard(), tr, words)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.References != words {
		t.Fatalf("warm references = %d", warm.Stats.References)
	}
	if warm.Stats.Misses != 0 {
		t.Fatalf("warm pass should be miss-free, got %d misses", warm.Stats.Misses)
	}
	if warm.AMAT() != 1 {
		t.Fatalf("warm AMAT = %v, want 1.0", warm.AMAT())
	}
	// Warmup beyond the trace length is clamped, yielding empty stats.
	empty, err := runWarm(Standard(), tr, tr.Len()+10)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Stats.References != 0 {
		t.Fatalf("over-long warmup should leave nothing measured: %+v", empty.Stats)
	}
	if _, err := runWarm(Standard(), tr, -1); err == nil {
		t.Fatal("negative warmup must be rejected")
	}
}

// TestRunWarmup pins Run's warmup split on every source: around the batch
// boundary (BatchSize = 2048), inside a later batch, exactly at and past
// the trace's end, for one and three fused configs, over Trace.Reader and
// flat and SCTZ bytes. Each result must equal a plain Access loop that
// calls ResetStats after min(Warmup, len) records.
func TestRunWarmup(t *testing.T) {
	tr, err := workloads.Trace("MV", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Len()
	if n < 3000 {
		t.Fatalf("MV has %d records; the table needs more than 3000", n)
	}
	var sctz bytes.Buffer
	if err := trace.WriteSCTZ(&sctz, tr); err != nil {
		t.Fatal(err)
	}
	flat := encodeTrace(t, tr)
	sources := []struct {
		name string
		open func() (trace.BatchReader, error)
	}{
		{"memory", func() (trace.BatchReader, error) { return tr.Reader(), nil }},
		{"flat", func() (trace.BatchReader, error) { return trace.NewReaderBytes(flat) }},
		{"sctz", func() (trace.BatchReader, error) { return trace.NewStreamReaderBytes(sctz.Bytes()) }},
	}
	for _, cfgs := range [][]Config{{Soft()}, {Standard(), Soft(), Victim()}} {
		for _, warmup := range []int{0, 1, 2047, 2048, 3000, n, n + 10} {
			want := make([]cache.Stats, len(cfgs))
			for i, cfg := range cfgs {
				sim, err := cache.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				w := min(warmup, n)
				for _, r := range tr.Records[:w] {
					sim.Access(r)
				}
				sim.ResetStats()
				for _, r := range tr.Records[w:] {
					sim.Access(r)
				}
				want[i] = sim.Stats()
			}
			for _, src := range sources {
				r, err := src.open()
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(context.Background(), Job{Configs: cfgs, Warmup: warmup}, r)
				if err != nil {
					t.Fatalf("%s, warmup %d: %v", src.name, warmup, err)
				}
				for i := range cfgs {
					if !reflect.DeepEqual(got[i].Stats, want[i]) {
						t.Errorf("%s, %d configs, warmup %d, config %s: Run diverges from the Access loop:\ngot:  %+v\nwant: %+v",
							src.name, len(cfgs), warmup, Describe(cfgs[i]), got[i].Stats, want[i])
					}
				}
			}
		}
	}
}

// TestSimulateContextMatchesAccessLoop pins Run, which hands the batched
// kernel BatchSize-record chunks, to a plain per-record Access
// loop for every named design, with and without the runtime invariant
// checker. The random trace spans many chunks and a partial last one, and
// carries software prefetches; MV is a structured workload.
func TestSimulateContextMatchesAccessLoop(t *testing.T) {
	mv, err := workloads.Trace("MV", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	traces := []*trace.Trace{mv, fusedRandomTrace(7, 65553)}
	for _, name := range ConfigNames() {
		for _, checks := range []bool{false, true} {
			base, err := ConfigByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := WithRuntimeChecks(base, checks)
			for _, tr := range traces {
				got, err := runOne(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				sim, err := cache.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range tr.Records {
					sim.Access(r)
				}
				if want := sim.Stats(); !reflect.DeepEqual(got.Stats, want) {
					t.Errorf("%s (checks=%v) on %s: Run diverges from the Access loop:\ngot:  %+v\nwant: %+v",
						name, checks, tr.Name, got.Stats, want)
				}
			}
		}
	}
}
