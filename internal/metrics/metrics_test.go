package metrics

import (
	"strings"
	"testing"

	"softcache/internal/trace"
)

func mkTrace(addrs []uint64) *trace.Trace {
	t := &trace.Trace{Name: "m"}
	for _, a := range addrs {
		t.Append(trace.Record{Addr: a, Size: 8, RefID: 1, Gap: 1})
	}
	return t
}

func TestReuseDistancesBasic(t *testing.T) {
	// Address 0 reused at distances 1 and 2; addresses 8,16 never reused.
	tr := mkTrace([]uint64{0, 0, 8, 0, 16})
	d := ReuseDistances(tr, 8)
	// Reuses: two in bucket "1-1e2". Terminal no-reuse entries: 3 distinct
	// addresses. Total refs 5.
	if d[1] != 2.0/5 {
		t.Fatalf("short-reuse share = %v", d[1])
	}
	if d[0] != 3.0/5 {
		t.Fatalf("no-reuse share = %v", d[0])
	}
}

func TestReuseDistancesGranularity(t *testing.T) {
	// 0 and 8 share a 32-byte line: at line granularity the second access
	// is a reuse.
	tr := mkTrace([]uint64{0, 8})
	if d := ReuseDistances(tr, 32); d[1] == 0 {
		t.Fatal("line-granularity reuse not detected")
	}
	if d := ReuseDistances(tr, 8); d[1] != 0 {
		t.Fatal("element-granularity must not see a reuse")
	}
}

func TestReuseDistancesBuckets(t *testing.T) {
	// Build a reuse at distance ~2000 (bucket 1e3-1e4).
	var addrs []uint64
	addrs = append(addrs, 0)
	for i := 0; i < 2000; i++ {
		addrs = append(addrs, uint64(1000000+8*i))
	}
	addrs = append(addrs, 0)
	d := ReuseDistances(mkTrace(addrs), 8)
	if d[3] == 0 {
		t.Fatalf("expected mass in the 1e3-1e4 bucket: %v", d)
	}
}

func TestReuseDistancesEmpty(t *testing.T) {
	if d := ReuseDistances(&trace.Trace{}, 8); d != [5]float64{} {
		t.Fatalf("empty trace: %v", d)
	}
}

func TestVectorLengthsStreams(t *testing.T) {
	// One instruction streaming 64 consecutive doubles: one 512-byte
	// vector (bucket 4: 257-512B).
	var tr trace.Trace
	for i := 0; i < 64; i++ {
		tr.Append(trace.Record{Addr: uint64(8 * i), Size: 8, RefID: 1})
	}
	d := VectorLengths(&tr, VectorParams{})
	if d[4] != 1 {
		t.Fatalf("distribution = %v, want all mass in 257-512B", d)
	}
}

func TestVectorLengthsStrideBreak(t *testing.T) {
	// A jump larger than MaxStride starts a new vector.
	var tr trace.Trace
	for i := 0; i < 4; i++ {
		tr.Append(trace.Record{Addr: uint64(8 * i), Size: 8, RefID: 1})
	}
	tr.Append(trace.Record{Addr: 1 << 20, Size: 8, RefID: 1})
	d := VectorLengths(&tr, VectorParams{})
	// First vector: 4 refs spanning 32 bytes (bucket 0); second: 1 ref.
	if d[0] != 1 {
		t.Fatalf("distribution = %v", d)
	}
}

func TestVectorLengthsGapBreak(t *testing.T) {
	// The same instruction idle for > MaxGap references breaks the vector.
	var tr trace.Trace
	tr.Append(trace.Record{Addr: 0, Size: 8, RefID: 1})
	tr.Append(trace.Record{Addr: 8, Size: 8, RefID: 1})
	for i := 0; i < 600; i++ { // other instruction
		tr.Append(trace.Record{Addr: uint64(1 << 20), Size: 8, RefID: 2})
	}
	tr.Append(trace.Record{Addr: 16, Size: 8, RefID: 1}) // would continue, but too late
	d := VectorLengths(&tr, VectorParams{})
	if d[0] < 0.99 { // everything collapses to <=32B vectors
		t.Fatalf("distribution = %v", d)
	}
}

func TestVectorLengthsMultipleInstructions(t *testing.T) {
	// Two interleaved streams must be tracked independently.
	var tr trace.Trace
	for i := 0; i < 16; i++ {
		tr.Append(trace.Record{Addr: uint64(8 * i), Size: 8, RefID: 1})
		tr.Append(trace.Record{Addr: uint64(1<<20 + 8*i), Size: 8, RefID: 2})
	}
	d := VectorLengths(&tr, VectorParams{})
	if d[2] != 1 { // both are 128-byte vectors
		t.Fatalf("distribution = %v", d)
	}
}

func TestTagFractions(t *testing.T) {
	var tr trace.Trace
	tr.Append(trace.Record{})
	tr.Append(trace.Record{Spatial: true})
	tr.Append(trace.Record{Temporal: true})
	tr.Append(trace.Record{Temporal: true, Spatial: true})
	f := TagFractions(&tr)
	for i, want := range []float64{0.25, 0.25, 0.25, 0.25} {
		if f[i] != want {
			t.Fatalf("fractions = %v", f)
		}
	}
}

func TestGapDistribution(t *testing.T) {
	var tr trace.Trace
	tr.Append(trace.Record{Gap: 0}) // first record: skipped
	for _, g := range []uint8{1, 2, 2, 5, 8, 12, 17, 25} {
		tr.Append(trace.Record{Gap: g})
	}
	d := GapDistribution(&tr)
	if d[1] != 2.0/8 { // two 2-cycle gaps
		t.Fatalf("distribution = %v", d)
	}
	if d[8] != 1.0/8 { // one >20
		t.Fatalf("distribution = %v", d)
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := NewTable("Title", "bench", "a", "b")
	tbl.AddRow("x", 1.5, 2.25)
	tbl.AddRow("longer-name", 0.125, 10)
	var b strings.Builder
	tbl.Fprint(&b, "%.2f")
	out := b.String()
	for _, want := range []string{"Title", "bench", "longer-name", "1.50", "10.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if tbl.Rows() != 2 || tbl.Value(0, 1) != 2.25 || tbl.RowLabelAt(1) != "longer-name" {
		t.Fatal("accessors broken")
	}
	if s := tbl.String(); !strings.Contains(s, "Title") {
		t.Fatal("String broken")
	}
}

func TestTableArityPanic(t *testing.T) {
	tbl := NewTable("t", "r", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity must panic")
		}
	}()
	tbl.AddRow("x", 1)
}

func TestTableBars(t *testing.T) {
	tbl := NewTable("t", "r", "a")
	tbl.AddRow("x", 2)
	tbl.AddRow("y", 4)
	var b strings.Builder
	tbl.FprintBars(&b, 10)
	out := b.String()
	if !strings.Contains(out, "##########") {
		t.Fatalf("max bar should span the full width:\n%s", out)
	}
}
