package workloads

import (
	"strings"
	"testing"

	"softcache/internal/locality"
	"softcache/internal/metrics"
)

func TestRegistryLists(t *testing.T) {
	if len(Benchmarks()) != 9 {
		t.Fatalf("benchmarks = %v", Benchmarks())
	}
	if len(Kernels()) != 7 {
		t.Fatalf("kernels = %v", Kernels())
	}
	for _, n := range append(Benchmarks(), Kernels()...) {
		if _, err := Get(n); err != nil {
			t.Fatalf("missing workload %s: %v", n, err)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown workload should error")
	}
	names := Names()
	if len(names) < 16 {
		t.Fatalf("registry too small: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("Names must be sorted")
		}
	}
}

// TestAllWorkloadsGenerate builds and generates every registered workload
// at test scale, asserting basic trace sanity.
func TestAllWorkloadsGenerate(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tr, err := Trace(name, ScaleTest, 1)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Len() < 1000 {
				t.Fatalf("trace too small: %d records", tr.Len())
			}
			if tr.Len() > 2_000_000 {
				t.Fatalf("test-scale trace too large: %d records", tr.Len())
			}
			if tr.Name == "" {
				t.Fatal("trace must carry the workload name")
			}
			// Addresses must be 4-byte aligned at least and non-zero.
			for i, r := range tr.Records {
				if r.Addr == 0 || r.Addr%4 != 0 {
					t.Fatalf("record %d has implausible address %#x", i, r.Addr)
				}
				if r.Size != 4 && r.Size != 8 {
					t.Fatalf("record %d has size %d", i, r.Size)
				}
			}
		})
	}
}

// TestTraceDeterminism: same name+scale+seed gives the identical trace.
func TestTraceDeterminism(t *testing.T) {
	a, err := Trace("SpMV", ScaleTest, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Trace("SpMV", ScaleTest, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatal("records differ")
		}
	}
}

// TestTagProfiles asserts the fig. 4a shape constraints each workload was
// designed to satisfy.
func TestTagProfiles(t *testing.T) {
	frac := func(name string) [4]float64 {
		tr, err := Trace(name, ScaleTest, 1)
		if err != nil {
			t.Fatal(err)
		}
		return metrics.TagFractions(tr)
	}
	// MDG: large untagged share (indirect neighbour lists + calls).
	if f := frac("MDG"); f[0] < 0.30 {
		t.Errorf("MDG untagged share %.2f, want >= 0.30", f[0])
	}
	// DYF: the most temporal of the Perfect-style codes.
	dyf := frac("DYF")
	for _, other := range []string{"MDG", "BDN", "TRF"} {
		o := frac(other)
		if dyf[2]+dyf[3] <= o[2]+o[3] {
			t.Errorf("DYF temporal share %.2f not above %s's %.2f",
				dyf[2]+dyf[3], other, o[2]+o[3])
		}
	}
	// TRF: spatial-dominated.
	if f := frac("TRF"); f[1]+f[3] < 0.50 {
		t.Errorf("TRF spatial share %.2f, want >= 0.50", f[1]+f[3])
	}
	// MV: no untagged references at all (fully analysable).
	if f := frac("MV"); f[0] > 0.001 {
		t.Errorf("MV untagged share %.2f, want 0", f[0])
	}
	// Kernels are fully analysable; everything is tagged except ARC's
	// deliberately strided direction (analysable yet not taggable — the
	// spatial rule rejects its large stride).
	for _, k := range Kernels() {
		limit := 0.02
		if k == "ARC-kernel" {
			limit = 0.20
		}
		if f := frac(k); f[0] > limit {
			t.Errorf("%s untagged share %.2f, want <= %.2f", k, f[0], limit)
		}
	}
}

// TestMVMatchesPaperTagging: the MV loop must reproduce the paper's §2.2
// tag assignment (A spatial-only, X and Y temporal+spatial).
func TestMVMatchesPaperTagging(t *testing.T) {
	p, err := BuildProgram("MV", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	tags, err := locality.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	sum := locality.Summarize(tags)
	if sum.Sites != 4 {
		t.Fatalf("MV should have 4 reference sites, got %d", sum.Sites)
	}
	if sum.TemporalSites != 3 || sum.SpatialSites != 4 {
		t.Fatalf("MV tagging: %+v (want 3 temporal, 4 spatial)", sum)
	}
}

func TestBlockedMVValidation(t *testing.T) {
	if _, err := BlockedMV(ScaleTest, 7); err == nil {
		t.Fatal("non-divisor block must be rejected")
	}
	if _, err := BlockedMV(ScaleTest, 0); err == nil {
		t.Fatal("zero block must be rejected")
	}
	p, err := BlockedMV(ScaleTest, 20)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name == "" {
		t.Fatal("program unnamed")
	}
}

func TestBlockedMMValidation(t *testing.T) {
	n, _ := BlockedMMSize(ScaleTest)
	if _, err := BlockedMM(ScaleTest, n-1, false); err == nil {
		t.Fatal("leading dimension below order must be rejected")
	}
	for _, copying := range []bool{false, true} {
		p, err := BlockedMM(ScaleTest, n+4, copying)
		if err != nil {
			t.Fatal(err)
		}
		if copying && p.Arrays["TA"] == nil {
			t.Fatal("copy variant must declare the local-memory array")
		}
		if !copying && p.Arrays["TA"] != nil {
			t.Fatal("no-copy variant must not declare TA")
		}
	}
}

// TestBlockedMMCopyTags: the local-memory array must be temporal so the
// bounce-back cache protects it during refills (§4.3).
func TestBlockedMMCopyTags(t *testing.T) {
	p, err := BlockedMM(ScaleTest, 30, true)
	if err != nil {
		t.Fatal(err)
	}
	tags, err := locality.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range p.Accesses() {
		if a.Array == "TA" && !a.Write {
			if !tags[a.ID].Temporal {
				t.Fatal("TA compute reference must be temporal")
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no TA read found")
	}
}

func TestScaleString(t *testing.T) {
	if ScaleTest.String() != "test" || ScalePaper.String() != "paper" {
		t.Fatal("Scale.String broken")
	}
}

// TestParseScale: ParseScale inverts String and rejects anything else,
// including the empty name.
func TestParseScale(t *testing.T) {
	for _, sc := range []Scale{ScaleTest, ScalePaper} {
		if got, err := ParseScale(sc.String()); err != nil || got != sc {
			t.Fatalf("ParseScale(%q) = %v, %v", sc, got, err)
		}
	}
	for _, bad := range []string{"", "huge", "Paper"} {
		if _, err := ParseScale(bad); err == nil || !strings.Contains(err.Error(), "unknown scale") {
			t.Fatalf("ParseScale(%q) = %v, want an unknown-scale error", bad, err)
		}
	}
}

// TestPaperScaleGeneration builds every workload at paper scale — the
// figure benches depend on these not erroring and staying within sane
// bounds. Guarded by -short for quick local runs.
func TestPaperScaleGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale generation is slow")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tr, err := Trace(name, ScalePaper, 1)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Len() < 50_000 {
				t.Fatalf("paper-scale trace suspiciously small: %d", tr.Len())
			}
			if tr.Len() > 8_000_000 {
				t.Fatalf("paper-scale trace too large: %d", tr.Len())
			}
		})
	}
}
