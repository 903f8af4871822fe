package tracegen

import (
	"testing"

	"softcache/internal/locality"
	"softcache/internal/loopir"
	"softcache/internal/timing"
	"softcache/internal/trace"
)

// buildNest returns DO i=0..2 / DO j=0..1 { load A(j,i); store X(j) } over
// A(2,3) and X(2).
func buildNest() *loopir.Program {
	p := loopir.NewProgram("nest")
	p.DeclareArray("A", 2, 3)
	p.DeclareArray("X", 2)
	p.Add(loopir.Do("i", loopir.C(0), loopir.C(2),
		loopir.Do("j", loopir.C(0), loopir.C(1),
			loopir.Read("A", loopir.V("j"), loopir.V("i")),
			loopir.Store("X", loopir.V("j")),
		),
	))
	return p
}

func TestAddressesAndOrder(t *testing.T) {
	p := buildNest()
	tr, err := Generate(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 12 { // 3*2*2 references
		t.Fatalf("len = %d, want 12", tr.Len())
	}
	aBase := p.Arrays["A"].Base
	xBase := p.Arrays["X"].Base
	// Expected sequence of (array offset) pairs, column-major A(j,i) =
	// j + 2i elements of 8 bytes.
	wantAddrs := []uint64{
		aBase + 0, xBase + 0, // i=0 j=0
		aBase + 8, xBase + 8, // i=0 j=1
		aBase + 16, xBase + 0, // i=1 j=0
		aBase + 24, xBase + 8,
		aBase + 32, xBase + 0,
		aBase + 40, xBase + 8,
	}
	for i, want := range wantAddrs {
		if got := tr.Records[i].Addr; got != want {
			t.Fatalf("record %d addr = %#x, want %#x", i, got, want)
		}
	}
	// Directions: even records are loads, odd are stores.
	for i, r := range tr.Records {
		if r.Write != (i%2 == 1) {
			t.Fatalf("record %d write = %v", i, r.Write)
		}
	}
	// RefIDs map to the two static sites.
	if tr.Records[0].RefID == tr.Records[1].RefID {
		t.Fatal("distinct sites must have distinct RefIDs")
	}
	if tr.Records[0].RefID != tr.Records[2].RefID {
		t.Fatal("the same site must keep its RefID")
	}
}

func TestDeterminismAndSeeds(t *testing.T) {
	a, err := Generate(buildNest(), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(buildNest(), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatal("same seed must reproduce the trace bit-for-bit")
		}
	}
	c, err := Generate(buildNest(), Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Addresses identical, gaps (usually) differ.
	diff := false
	for i := range a.Records {
		if a.Records[i].Addr != c.Records[i].Addr {
			t.Fatal("addresses must not depend on the seed")
		}
		if a.Records[i].Gap != c.Records[i].Gap {
			diff = true
		}
	}
	if !diff {
		t.Fatal("gap streams of different seeds should differ")
	}
}

func TestFirstGapZero(t *testing.T) {
	tr, err := Generate(buildNest(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Records[0].Gap != 0 {
		t.Fatalf("first gap = %d, want 0", tr.Records[0].Gap)
	}
	for i := 1; i < tr.Len(); i++ {
		if tr.Records[i].Gap < 1 {
			t.Fatalf("gap %d = %d, want >= 1", i, tr.Records[i].Gap)
		}
	}
}

func TestTagsAppearInTrace(t *testing.T) {
	p := buildNest()
	tr, err := Generate(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// X(j) is temporal (i absent) + spatial; A(j,i) spatial only.
	for i, r := range tr.Records {
		if i%2 == 1 { // X store
			if !r.Temporal || !r.Spatial {
				t.Fatalf("X record %d tags = %+v", i, r)
			}
		} else { // A load
			if r.Temporal || !r.Spatial {
				t.Fatalf("A record %d tags = %+v", i, r)
			}
		}
	}
}

func TestGenerateTaggedOverride(t *testing.T) {
	p := buildNest()
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	// Force everything untagged.
	tr, err := GenerateTagged(p, locality.Tagging{}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := tr.CountTags()
	if c.None != tr.Len() {
		t.Fatalf("explicit empty tagging should yield untagged trace: %+v", c)
	}
}

func TestDataDependentBounds(t *testing.T) {
	p := loopir.NewProgram("csr")
	p.DeclareArray("A", 6)
	p.DeclareData("D", []int{0, 2, 6})
	p.Add(loopir.Do("i", loopir.C(0), loopir.C(1),
		loopir.Do("j", loopir.Load("D", loopir.V("i")),
			loopir.Plus(loopir.Load("D", loopir.Plus(loopir.V("i"), 1)), -1),
			loopir.Read("A", loopir.V("j")),
		),
	))
	tr, err := Generate(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 6 { // rows of 2 and 4 elements
		t.Fatalf("len = %d, want 6", tr.Len())
	}
	base := p.Arrays["A"].Base
	for i, r := range tr.Records {
		if r.Addr != base+uint64(8*i) {
			t.Fatalf("record %d addr = %#x", i, r.Addr)
		}
	}
}

func TestIndirectSubscript(t *testing.T) {
	p := loopir.NewProgram("ind")
	p.DeclareArray("X", 10)
	p.DeclareData("Idx", []int{7, 3, 9})
	p.Add(loopir.Do("i", loopir.C(0), loopir.C(2),
		loopir.Read("X", loopir.Load("Idx", loopir.V("i"))),
	))
	tr, err := Generate(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := p.Arrays["X"].Base
	want := []uint64{base + 7*8, base + 3*8, base + 9*8}
	for i, w := range want {
		if tr.Records[i].Addr != w {
			t.Fatalf("record %d addr = %#x, want %#x", i, tr.Records[i].Addr, w)
		}
	}
}

func TestOutOfRangeSubscript(t *testing.T) {
	p := loopir.NewProgram("oob")
	p.DeclareArray("X", 4)
	p.Add(loopir.Do("i", loopir.C(0), loopir.C(10),
		loopir.Read("X", loopir.V("i")),
	))
	requireError(t, p, Options{Seed: 1}, "tracegen: subscript 4 out of range [0,4) in dim 0 of X (ref 1)")
}

func TestOutOfRangeIndirectIndex(t *testing.T) {
	p := loopir.NewProgram("oob2")
	p.DeclareArray("X", 10)
	p.DeclareData("Idx", []int{0})
	p.Add(loopir.Do("i", loopir.C(0), loopir.C(5),
		loopir.Read("X", loopir.Load("Idx", loopir.V("i"))),
	))
	requireError(t, p, Options{Seed: 1}, "tracegen: index 1 out of range for data array Idx (len 1)")
}

func TestMaxRecordsGuard(t *testing.T) {
	p := loopir.NewProgram("big")
	p.DeclareArray("X", 10)
	p.Add(loopir.Do("i", loopir.C(0), loopir.C(9),
		loopir.Do("j", loopir.C(0), loopir.C(9),
			loopir.Read("X", loopir.V("j")),
		),
	))
	requireError(t, p, Options{Seed: 1, MaxRecords: 50}, "tracegen: trace exceeds MaxRecords=50 (workload mis-sized?)")
}

// TestOutOfRangeLoopBound: a loop bound that reads a data array out of
// range also defeats the counting pass that sizes Records. Generation then
// grows Records as it goes and reports the error itself, unchanged.
func TestOutOfRangeLoopBound(t *testing.T) {
	p := loopir.NewProgram("badbound")
	p.DeclareArray("A", 6)
	p.DeclareData("D", []int{0, 2, 6})
	p.Add(loopir.Do("i", loopir.C(0), loopir.C(2),
		loopir.Do("j", loopir.Load("D", loopir.V("i")),
			loopir.Plus(loopir.Load("D", loopir.Plus(loopir.V("i"), 1)), -1),
			loopir.Read("A", loopir.V("j")),
		),
	))
	requireError(t, p, Options{Seed: 1}, "tracegen: index 3 out of range for data array D (len 3)")
}

// requireError asserts that generating p fails with exactly want: the
// counting pass that sizes Records must never change what generation
// reports.
func requireError(t *testing.T, p *loopir.Program, opts Options, want string) {
	t.Helper()
	if _, err := Generate(p, opts); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestEmptyLoopBody(t *testing.T) {
	p := loopir.NewProgram("empty")
	p.DeclareArray("X", 4)
	p.Add(loopir.Do("i", loopir.C(3), loopir.C(0), // empty range
		loopir.Read("X", loopir.V("i")),
	))
	tr, err := Generate(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatalf("empty range generated %d records", tr.Len())
	}
}

func TestCustomGapModel(t *testing.T) {
	tr, err := Generate(buildNest(), Options{Seed: 1, Gaps: timing.Constant(4)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < tr.Len(); i++ {
		if tr.Records[i].Gap != 4 {
			t.Fatalf("gap = %d, want 4", tr.Records[i].Gap)
		}
	}
}

func TestStepLoop(t *testing.T) {
	p := loopir.NewProgram("step")
	p.DeclareArray("X", 16)
	p.Add(loopir.DoStep("i", loopir.C(0), loopir.C(15), 4,
		loopir.Read("X", loopir.V("i")),
	))
	tr, err := Generate(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	base := p.Arrays["X"].Base
	for i, r := range tr.Records {
		if r.Addr != base+uint64(32*i) {
			t.Fatalf("record %d addr = %#x", i, r.Addr)
		}
	}
}

func TestPrefetchStatementEmitsRecords(t *testing.T) {
	p := loopir.NewProgram("pf")
	p.DeclareArray("X", 16)
	p.Add(loopir.Do("i", loopir.C(0), loopir.C(15),
		loopir.Read("X", loopir.V("i")),
		loopir.PrefetchOf("X", loopir.Plus(loopir.V("i"), 4)),
	))
	tr, err := Generate(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	demand, prefetch := 0, 0
	for _, r := range tr.Records {
		if r.SoftwarePrefetch {
			prefetch++
			if r.Write {
				t.Fatal("prefetch records are not stores")
			}
		} else {
			demand++
		}
	}
	if demand != 16 {
		t.Fatalf("demand records = %d, want 16", demand)
	}
	// i+4 exceeds the array for i in [12,15]: those prefetches are
	// dropped silently (non-faulting), so only 12 survive.
	if prefetch != 12 {
		t.Fatalf("prefetch records = %d, want 12", prefetch)
	}
}

func TestVirtualHintInGeneratedTrace(t *testing.T) {
	// A long stride-1 stream gets the maximum length hint.
	p := loopir.NewProgram("vh")
	p.DeclareArray("X", 512)
	p.Add(loopir.Do("i", loopir.C(0), loopir.C(511),
		loopir.Read("X", loopir.V("i")),
	))
	tr, err := Generate(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tr.Records {
		if !r.Spatial {
			t.Fatalf("record %d not spatial", i)
		}
		if got := trace.VirtualHintBytes(r.VirtualHint); got != 256 {
			t.Fatalf("record %d hint = %d bytes, want 256", i, got)
		}
	}
}
