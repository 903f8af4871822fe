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
	res, err := Simulate(Soft(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != "MV" || res.AMAT() < 1 || res.MissRatio() <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if _, err := Simulate(Config{}, tr); err == nil {
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
		std, err := Simulate(Standard(), tr)
		if err != nil {
			t.Fatal(err)
		}
		for label, cfg := range map[string]Config{
			"Soft":     Soft(),
			"SoftTemp": SoftTemporal(),
			"SoftSpat": SoftSpatial(),
		} {
			res, err := Simulate(cfg, tr)
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
	stripped, err := Simulate(Soft(), tr.StripTags(true, true))
	if err != nil {
		t.Fatal(err)
	}
	gated := Soft()
	gated.UseTemporalTags = false
	gated.UseSpatialTags = false
	gatedRes, err := Simulate(gated, tr)
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
	a, err := Simulate(soft, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(Victim(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.CostCycles != b.Stats.CostCycles {
		t.Fatalf("degenerate Soft %.4f != Victim %.4f", a.AMAT(), b.AMAT())
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{Stats: cache.Stats{References: 10, CostCycles: 25, Misses: 2}}
	if r.AMAT() != 2.5 || r.MissRatio() != 0.2 {
		t.Fatalf("helpers broken: %+v", r)
	}
}

// TestSimulateStreamMatchesInMemory: the streaming path (a one-config
// SimulateMany over a serialised trace) must produce byte-identical
// statistics to the in-memory path.
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
	results, err := SimulateMany(context.Background(), []Config{Soft()}, r)
	if err != nil {
		t.Fatal(err)
	}
	streamed := results[0]
	inMemory, err := Simulate(Soft(), tr)
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
			res, err := Simulate(Soft(), tr)
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
	cold, err := Simulate(Standard(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Misses == 0 {
		t.Fatal("cold pass should miss")
	}
	warm, err := SimulateWarm(Standard(), tr, words)
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
	empty, err := SimulateWarm(Standard(), tr, tr.Len()+10)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Stats.References != 0 {
		t.Fatalf("over-long warmup should leave nothing measured: %+v", empty.Stats)
	}
}

// TestSimulateContextMatchesAccessLoop pins SimulateContext, which hands
// the batched kernel BatchSize-record chunks, to a plain per-record Access
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
				got, err := SimulateContext(context.Background(), cfg, tr)
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
					t.Errorf("%s (checks=%v) on %s: SimulateContext diverges from the Access loop:\ngot:  %+v\nwant: %+v",
						name, checks, tr.Name, got.Stats, want)
				}
			}
		}
	}
}
