package perf

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"softcache/internal/cache"
	"softcache/internal/workloads"
)

func TestMatrixPinned(t *testing.T) {
	full := Matrix(false)
	quick := Matrix(true)
	if len(full) != 12 {
		t.Fatalf("full matrix has %d cases, want 12 (2 scales x 3 virtual-line sizes x bb on/off)", len(full))
	}
	if len(quick) != 6 {
		t.Fatalf("quick matrix has %d cases, want 6", len(quick))
	}
	fullNames := map[string]bool{}
	for _, s := range full {
		if fullNames[s.Name] {
			t.Fatalf("duplicate case name %q", s.Name)
		}
		fullNames[s.Name] = true
		if _, err := cache.New(s.Config()); err != nil {
			t.Errorf("case %s has invalid config: %v", s.Name, err)
		}
	}
	for _, s := range quick {
		if !fullNames[s.Name] {
			t.Errorf("quick case %s not part of the full matrix", s.Name)
		}
		if strings.Contains(s.Name, "paper") {
			t.Errorf("quick matrix contains paper-scale case %s", s.Name)
		}
	}
}

func TestRunnerReportAndGate(t *testing.T) {
	specs := Matrix(true)[:2]
	fused := FusedMatrix(true)[:1]
	decode := DecodeMatrix(true)[:2]
	r := Runner{MinIters: 1, MinTime: time.Millisecond}
	report, err := r.Run(context.Background(), specs, fused, decode)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Cases) != len(specs) {
		t.Fatalf("got %d cases, want %d", len(report.Cases), len(specs))
	}
	for _, c := range report.Cases {
		if c.Records <= 0 || c.Iters <= 0 || c.NsPerRecord <= 0 || c.RecordsPerSec <= 0 || c.AMAT <= 0 {
			t.Errorf("case %s has implausible measurement: %+v", c.Name, c)
		}
	}
	if len(report.Matrix) != len(fused) {
		t.Fatalf("got %d matrix rows, want %d", len(report.Matrix), len(fused))
	}
	for _, m := range report.Matrix {
		if m.Configs <= 1 || m.Records <= 0 || m.Iters <= 0 ||
			m.FusedNsPerRecord <= 0 || m.LoopNsPerRecord <= 0 || m.Speedup <= 0 || m.MeanAMAT <= 0 {
			t.Errorf("matrix row %s has implausible measurement: %+v", m.Name, m)
		}
	}
	if len(report.Decode) != len(decode) {
		t.Fatalf("got %d decode rows, want %d", len(report.Decode), len(decode))
	}
	for _, d := range report.Decode {
		if d.Records <= 0 || d.Iters <= 0 || d.FlatBytes <= 0 || d.SCTZBytes <= 0 ||
			d.Compression <= 0 || d.FlatNsPerRecord <= 0 || d.SCTZNsPerRecord <= 0 || d.Ratio <= 0 {
			t.Errorf("decode row %s has implausible measurement: %+v", d.Name, d)
		}
		if d.SCTZBytes >= d.FlatBytes {
			t.Errorf("decode row %s: sctz %d bytes not smaller than flat %d", d.Name, d.SCTZBytes, d.FlatBytes)
		}
	}
	// Pin the decode timings before the gate checks: the absolute
	// corpus-weighted sctz<=flat gate reads the measured numbers, and
	// millisecond test-scale runs are too noisy to promise that here.
	for i := range report.Decode {
		report.Decode[i].FlatNsPerRecord = 10
		report.Decode[i].SCTZNsPerRecord = 8
		report.Decode[i].Ratio = 0.8
	}

	path := filepath.Join(t.TempDir(), "BENCH_kernel.json")
	if err := WriteJSON(path, report); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Cases) != len(report.Cases) || loaded.Schema != SchemaID {
		t.Fatalf("round trip lost data: %+v", loaded)
	}

	// Identical runs pass any gate; a doubled ns/record must trip it.
	if err := Gate(loaded, report, 0.15); err != nil {
		t.Fatalf("identical reports tripped the gate: %v", err)
	}
	slow := *report
	slow.Cases = append([]Measurement(nil), report.Cases...)
	slow.Cases[0].NsPerRecord *= 2
	err = Gate(loaded, &slow, 0.15)
	if err == nil {
		t.Fatal("2x regression passed the 15% gate")
	}
	if !strings.Contains(err.Error(), slow.Cases[0].Name) {
		t.Fatalf("gate error does not name the regressed case: %v", err)
	}

	// New cases (absent from the baseline) never trip the gate.
	extra := slow.Cases[0]
	extra.Name = "synthetic/new-case"
	fresh := *report
	fresh.Cases = append(append([]Measurement(nil), report.Cases...), extra)
	if err := Gate(loaded, &fresh, 0.15); err != nil {
		t.Fatalf("baseline-less case tripped the gate: %v", err)
	}

	// A fused-matrix regression trips the gate too.
	slowMatrix := *report
	slowMatrix.Cases = append([]Measurement(nil), report.Cases...)
	slowMatrix.Matrix = append([]MatrixMeasurement(nil), report.Matrix...)
	slowMatrix.Matrix[0].FusedNsPerRecord *= 2
	err = Gate(loaded, &slowMatrix, 0.15)
	if err == nil {
		t.Fatal("2x fused regression passed the 15% gate")
	}
	if !strings.Contains(err.Error(), slowMatrix.Matrix[0].Name) {
		t.Fatalf("gate error does not name the regressed matrix row: %v", err)
	}

	// A decode-row sctz regression trips the gate too.
	slowDecode := *report
	slowDecode.Cases = append([]Measurement(nil), report.Cases...)
	slowDecode.Decode = append([]DecodeMeasurement(nil), report.Decode...)
	slowDecode.Decode[0].SCTZNsPerRecord *= 2
	err = Gate(loaded, &slowDecode, 0.15)
	if err == nil {
		t.Fatal("2x sctz decode regression passed the 15% gate")
	}
	if !strings.Contains(err.Error(), slowDecode.Decode[0].Name) {
		t.Fatalf("gate error does not name the regressed decode row: %v", err)
	}

	// The corpus-weighted sctz<=flat budget is absolute: even against an
	// identical baseline (no relative regression at all), sctz decoding
	// slower than flat on the paper-scale corpus fails the suite.
	overBudget := *report
	overBudget.Decode = append([]DecodeMeasurement(nil), report.Decode...)
	for i := range overBudget.Decode {
		overBudget.Decode[i].ScaleName = workloads.ScalePaper.String()
		overBudget.Decode[i].SCTZNsPerRecord = overBudget.Decode[i].FlatNsPerRecord * 1.05
		overBudget.Decode[i].Ratio = 1.05
	}
	err = Gate(&overBudget, &overBudget, 0.15)
	if err == nil {
		t.Fatal("sctz above the flat corpus-weighted budget passed the gate")
	}
	if !strings.Contains(err.Error(), "corpus-weighted") {
		t.Fatalf("gate error does not name the corpus-weighted budget: %v", err)
	}

	mdPlain := Markdown(nil, report)
	mdDelta := Markdown(loaded, report)
	for _, c := range report.Cases {
		if !strings.Contains(mdPlain, c.Name) || !strings.Contains(mdDelta, c.Name) {
			t.Errorf("markdown report missing case %s", c.Name)
		}
	}
	for _, m := range report.Matrix {
		if !strings.Contains(mdPlain, m.Name) || !strings.Contains(mdDelta, m.Name) {
			t.Errorf("markdown report missing matrix row %s", m.Name)
		}
	}
	for _, d := range report.Decode {
		if !strings.Contains(mdPlain, d.Name) || !strings.Contains(mdDelta, d.Name) {
			t.Errorf("markdown report missing decode row %s", d.Name)
		}
	}
	if !strings.Contains(mdPlain, "Trace codec decode matrix") || !strings.Contains(mdPlain, "Corpus-weighted:") {
		t.Error("report lacks the decode section or its corpus-weighted summary")
	}
	if !strings.Contains(mdDelta, "Δ ns/record") {
		t.Error("delta report lacks the delta column")
	}
	if !strings.Contains(mdDelta, "speedup") {
		t.Error("report lacks the fused speedup column")
	}
}

// TestFusedMatrixPinned mirrors TestMatrixPinned for the fused rows: names
// are unique, quick is a subset of full, and every group builds.
func TestFusedMatrixPinned(t *testing.T) {
	full := FusedMatrix(false)
	quick := FusedMatrix(true)
	if len(full) != 6 {
		t.Fatalf("full fused matrix has %d rows, want 6 (2 scales x 3 groups)", len(full))
	}
	if len(quick) != 3 {
		t.Fatalf("quick fused matrix has %d rows, want 3", len(quick))
	}
	fullNames := map[string]bool{}
	for _, m := range full {
		if fullNames[m.Name] {
			t.Fatalf("duplicate fused row name %q", m.Name)
		}
		fullNames[m.Name] = true
		cfgs, err := m.Configs()
		if err != nil {
			t.Fatalf("row %s: %v", m.Name, err)
		}
		if len(cfgs) < 2 {
			t.Fatalf("row %s has %d configs; fusion needs at least 2", m.Name, len(cfgs))
		}
		for i, cfg := range cfgs {
			if _, err := cache.New(cfg); err != nil {
				t.Errorf("row %s config %d invalid: %v", m.Name, i, err)
			}
		}
	}
	for _, m := range quick {
		if !fullNames[m.Name] {
			t.Errorf("quick row %s not part of the full matrix", m.Name)
		}
		if strings.Contains(m.Name, "paper") {
			t.Errorf("quick fused matrix contains paper-scale row %s", m.Name)
		}
	}
	if _, err := (MatrixSpec{Group: "no-such-group"}).Configs(); err == nil {
		t.Error("unknown group accepted")
	}
}

// TestDecodeMatrixPinned mirrors TestMatrixPinned for the decode rows:
// names are unique, quick is the test-scale subset of full, and every
// workload names a known corpus trace.
func TestDecodeMatrixPinned(t *testing.T) {
	full := DecodeMatrix(false)
	quick := DecodeMatrix(true)
	if len(full) != 6 {
		t.Fatalf("full decode matrix has %d rows, want 6 (2 scales x 3 workloads)", len(full))
	}
	if len(quick) != 3 {
		t.Fatalf("quick decode matrix has %d rows, want 3", len(quick))
	}
	fullNames := map[string]bool{}
	for _, d := range full {
		if fullNames[d.Name] {
			t.Fatalf("duplicate decode row name %q", d.Name)
		}
		fullNames[d.Name] = true
		if _, err := workloads.Get(d.Workload); err != nil {
			t.Errorf("row %s names unknown workload: %v", d.Name, err)
		}
	}
	for _, d := range quick {
		if !fullNames[d.Name] {
			t.Errorf("quick row %s not part of the full matrix", d.Name)
		}
		if strings.Contains(d.Name, "paper") {
			t.Errorf("quick decode matrix contains paper-scale row %s", d.Name)
		}
	}
}

// TestReadJSONAcceptsV3 keeps older baselines loadable, including the
// "sharded" rows that v3 and v4 files written before the set-sharded
// kernel was removed still carry: those rows are ignored, and the cases,
// fused and decode rows each still gate. Rows a baseline lacks (decode in
// v3) are simply baseline-less.
func TestReadJSONAcceptsV3(t *testing.T) {
	const rows = `
  "cases": [{"name": "MV/test/vl0/bb0", "ns_per_record": 10}],
  "matrix": [{"name": "fused/x", "fused_ns_per_record": 5}],
  "sharded": [{"name": "sharded/MV/paper/standard/s1", "shards": 1, "effective_shards": 1,
    "exact": true, "ns_per_record": 28.6, "speedup": 1, "amat": 9.9}]`
	for _, tc := range []struct {
		name, json string
		decode     bool
	}{
		{"v3", `{"schema": "softcache-perf/v3",` + rows + `}`, false},
		{"v4", `{"schema": "softcache-perf/v4",` + rows + `,
  "decode": [{"name": "decode/MV/test", "records": 100, "flat_ns_per_record": 10,
    "sctz_ns_per_record": 8, "ratio": 0.8}]}`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), tc.name+".json")
			if err := os.WriteFile(path, []byte(tc.json), 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadJSON(path)
			if err != nil {
				t.Fatalf("%s baseline with sharded rows rejected: %v", tc.name, err)
			}
			if len(loaded.Cases) != 1 || len(loaded.Matrix) != 1 {
				t.Fatalf("%s round trip: %+v", tc.name, loaded)
			}
			decode := []DecodeMeasurement{{
				DecodeSpec:      DecodeSpec{Name: "decode/MV/test"},
				Records:         100,
				FlatNsPerRecord: 10, SCTZNsPerRecord: 8, Ratio: 0.8,
			}}
			same := &Report{Schema: SchemaID, Cases: loaded.Cases, Matrix: loaded.Matrix, Decode: decode}
			if err := Gate(loaded, same, 0.15); err != nil {
				t.Fatalf("unchanged rows tripped the gate against %s: %v", tc.name, err)
			}
			slowCase := &Report{Schema: SchemaID,
				Cases: []Measurement{{CaseSpec: CaseSpec{Name: "MV/test/vl0/bb0"}, NsPerRecord: 30}}}
			if err := Gate(loaded, slowCase, 0.15); err == nil {
				t.Fatalf("case regression against %s baseline passed the gate", tc.name)
			}
			slowFused := &Report{Schema: SchemaID,
				Matrix: []MatrixMeasurement{{MatrixSpec: MatrixSpec{Name: "fused/x"}, FusedNsPerRecord: 20}}}
			if err := Gate(loaded, slowFused, 0.15); err == nil {
				t.Fatalf("fused regression against %s baseline passed the gate", tc.name)
			}
			slowDecode := &Report{Schema: SchemaID, Decode: append([]DecodeMeasurement(nil), decode...)}
			slowDecode.Decode[0].SCTZNsPerRecord = 9.5
			err = Gate(loaded, slowDecode, 0.15)
			if tc.decode && err == nil {
				t.Fatalf("decode regression against %s baseline passed the gate", tc.name)
			}
			if !tc.decode && err != nil {
				t.Fatalf("decode rows without %s baseline tripped the gate: %v", tc.name, err)
			}
		})
	}
}

// TestReadJSONAcceptsV2 keeps pre-sharded baselines loadable: cases and
// fused rows still gate, decode rows are simply baseline-less.
func TestReadJSONAcceptsV2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.json")
	v2 := &Report{Schema: "softcache-perf/v2",
		Cases:  []Measurement{{CaseSpec: CaseSpec{Name: "MV/test/vl0/bb0"}, NsPerRecord: 10}},
		Matrix: []MatrixMeasurement{{MatrixSpec: MatrixSpec{Name: "fused/x"}, FusedNsPerRecord: 5}},
	}
	if err := WriteJSON(path, v2); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSON(path)
	if err != nil {
		t.Fatalf("v2 baseline rejected: %v", err)
	}
	cur := &Report{Schema: SchemaID,
		Cases:  v2.Cases,
		Matrix: []MatrixMeasurement{{MatrixSpec: MatrixSpec{Name: "fused/x"}, FusedNsPerRecord: 20}},
		Decode: []DecodeMeasurement{{
			DecodeSpec:      DecodeSpec{Name: "decode/MV/test"},
			Records:         100,
			FlatNsPerRecord: 10, SCTZNsPerRecord: 8, Ratio: 0.8,
		}},
	}
	if err := Gate(loaded, cur, 0.15); err == nil {
		t.Fatal("fused regression against v2 baseline passed the gate")
	}
	if err := Gate(loaded, &Report{Schema: SchemaID, Decode: cur.Decode}, 0.15); err != nil {
		t.Fatalf("decode rows without v2 baseline tripped the gate: %v", err)
	}
}

// TestReadJSONAcceptsV1 keeps pre-matrix baselines loadable: the case gate
// still works against them, and the fused rows simply have no baseline.
func TestReadJSONAcceptsV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.json")
	v1 := &Report{Schema: "softcache-perf/v1", Cases: []Measurement{{
		CaseSpec:    CaseSpec{Name: "MV/test/vl0/bb0"},
		NsPerRecord: 10,
	}}}
	if err := WriteJSON(path, v1); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSON(path)
	if err != nil {
		t.Fatalf("v1 baseline rejected: %v", err)
	}
	if len(loaded.Matrix) != 0 || len(loaded.Cases) != 1 {
		t.Fatalf("v1 round trip: %+v", loaded)
	}
	cur := &Report{Schema: SchemaID,
		Cases:  []Measurement{{CaseSpec: CaseSpec{Name: "MV/test/vl0/bb0"}, NsPerRecord: 30}},
		Matrix: []MatrixMeasurement{{MatrixSpec: MatrixSpec{Name: "fused/x"}, FusedNsPerRecord: 5}},
	}
	if err := Gate(loaded, cur, 0.15); err == nil {
		t.Fatal("case regression against v1 baseline passed the gate")
	}
	if err := Gate(loaded, &Report{Schema: SchemaID, Matrix: cur.Matrix}, 0.15); err != nil {
		t.Fatalf("fused rows without v1 baseline tripped the gate: %v", err)
	}
}

func TestReadJSONRejectsForeignSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := WriteJSON(path, &Report{Schema: "something/else"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(path); err == nil {
		t.Fatal("foreign schema accepted")
	}
}
