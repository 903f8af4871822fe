// Differential coverage for the SCTZ codec against the workload corpus.
// This lives in an external test package so it can import
// internal/workloads (which itself builds on trace) without a cycle.
package trace_test

import (
	"bytes"
	"testing"

	"softcache/internal/trace"
	"softcache/internal/workloads"
)

// TestSCTZDifferentialWorkloads proves the compressed format round-trips
// every workload trace record-identically to the flat format, at test
// scale for all workloads and at paper scale for one loop nest and the
// irregular SpMV (the two structural extremes), unless -short.
func TestSCTZDifferentialWorkloads(t *testing.T) {
	type tc struct {
		name  string
		scale workloads.Scale
	}
	var cases []tc
	for _, n := range workloads.Names() {
		cases = append(cases, tc{n, workloads.ScaleTest})
	}
	if !testing.Short() {
		cases = append(cases, tc{"MV", workloads.ScalePaper}, tc{"SpMV", workloads.ScalePaper})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := workloads.Trace(c.name, c.scale, 1)
			if err != nil {
				t.Fatal(err)
			}
			var flat, sctz bytes.Buffer
			if err := trace.Write(&flat, tr); err != nil {
				t.Fatal(err)
			}
			if err := trace.WriteSCTZ(&sctz, tr); err != nil {
				t.Fatal(err)
			}
			fromFlat, err := readAny(flat.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			fromSCTZ, err := readAny(sctz.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if fromFlat.Name != fromSCTZ.Name || len(fromFlat.Records) != len(fromSCTZ.Records) {
				t.Fatalf("shape mismatch: flat %q/%d, sctz %q/%d",
					fromFlat.Name, len(fromFlat.Records), fromSCTZ.Name, len(fromSCTZ.Records))
			}
			for i := range fromFlat.Records {
				if fromFlat.Records[i] != fromSCTZ.Records[i] {
					t.Fatalf("record %d: flat %+v, sctz %+v", i, fromFlat.Records[i], fromSCTZ.Records[i])
				}
			}
		})
	}
}

// TestSCTZCompressionRatio pins the tentpole's size target: across the
// full workload set the compressed encoding must be at least 3x smaller
// than the flat one. (Loop nests individually compress 10x+; the aggregate
// bound keeps the irregular workloads honest too.)
func TestSCTZCompressionRatio(t *testing.T) {
	scale := workloads.ScaleTest
	if !testing.Short() {
		scale = workloads.ScalePaper
	}
	var flatTotal, sctzTotal int
	for _, n := range workloads.Names() {
		tr, err := workloads.Trace(n, scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		var flat, sctz bytes.Buffer
		if err := trace.Write(&flat, tr); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteSCTZ(&sctz, tr); err != nil {
			t.Fatal(err)
		}
		ratio := float64(flat.Len()) / float64(sctz.Len())
		t.Logf("%-12s %9d records  flat %10d B  sctz %9d B  %6.2fx", n, len(tr.Records), flat.Len(), sctz.Len(), ratio)
		flatTotal += flat.Len()
		sctzTotal += sctz.Len()
	}
	if ratio := float64(flatTotal) / float64(sctzTotal); ratio < 3 {
		t.Fatalf("aggregate compression %0.2fx, want >= 3x", ratio)
	}
}

// readAny materialises a serialised trace through the format sniffer.
func readAny(data []byte) (*trace.Trace, error) {
	r, err := trace.NewAnyReader(bytes.NewReader(data), "any")
	if err != nil {
		return nil, err
	}
	return trace.ReadAll(r)
}
