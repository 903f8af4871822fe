package perf

import (
	"context"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"softcache/internal/cache"
	"softcache/internal/workloads"
)

// TestRowsPinned checks the pinned rows as a whole: names are unique,
// quick is the test-scale subset of full, every workload exists and an
// unknown config set is refused. The per-layer tests below check each
// layer's rows.
func TestRowsPinned(t *testing.T) {
	full := Rows(false)
	quick := Rows(true)
	if len(full) != 36 {
		t.Fatalf("full set has %d rows, want 36 (2 scales x (6 one-config kernel + 3 sets x fused/kernel + 3 traces x flat/sctz))", len(full))
	}
	if len(quick) != 18 {
		t.Fatalf("quick set has %d rows, want 18", len(quick))
	}
	fullNames := map[string]bool{}
	for _, s := range full {
		if fullNames[s.Name()] {
			t.Fatalf("duplicate row name %q", s.Name())
		}
		fullNames[s.Name()] = true
		if _, err := workloads.Get(s.Workload); err != nil {
			t.Errorf("row %s names unknown workload: %v", s.Name(), err)
		}
	}
	for _, s := range quick {
		if !fullNames[s.Name()] {
			t.Errorf("quick row %s not part of the full set", s.Name())
		}
		if s.Scale != workloads.ScaleTest {
			t.Errorf("quick set contains %s-scale row %s", s.Scale, s.Name())
		}
	}
	if _, err := (Spec{Set: "no-such-set"}).Configs(); err == nil {
		t.Error("unknown config set accepted")
	}
}

// layerRows returns the rows of Rows(quick) that keep reports true for.
func layerRows(quick bool, keep func(Spec) bool) []Spec {
	var out []Spec
	for _, s := range Rows(quick) {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// setSize is the number of configs a kernel or fused row's set builds.
func setSize(t *testing.T, s Spec) int {
	t.Helper()
	cfgs, err := s.Configs()
	if err != nil {
		t.Fatalf("row %s: %v", s.Name(), err)
	}
	for i, cfg := range cfgs {
		if _, err := cache.New(cfg); err != nil {
			t.Errorf("row %s config %d invalid: %v", s.Name(), i, err)
		}
	}
	return len(cfgs)
}

// TestMatrixPinned checks the one-config kernel rows: 2 scales x 3
// virtual-line sizes x bounce-back on/off over MV, each a valid config.
func TestMatrixPinned(t *testing.T) {
	points, _ := softGrid()
	oneConfig := func(s Spec) bool { return s.Layer == layerKernel && slices.Contains(points, s.Set) }
	full := layerRows(false, oneConfig)
	quick := layerRows(true, oneConfig)
	if len(full) != 12 {
		t.Fatalf("full set has %d one-config kernel rows, want 12 (2 scales x 3 virtual-line sizes x bb on/off)", len(full))
	}
	if len(quick) != 6 {
		t.Fatalf("quick set has %d one-config kernel rows, want 6", len(quick))
	}
	for _, s := range full {
		if n := setSize(t, s); n != 1 {
			t.Errorf("row %s builds %d configs, want 1", s.Name(), n)
		}
	}
}

// TestFusedMatrixPinned checks the fused rows: each set builds at least
// two valid configs and has a kernel row on the same set, the loop leg
// the fused speedup is measured against.
func TestFusedMatrixPinned(t *testing.T) {
	fused := func(s Spec) bool { return s.Layer == layerFused }
	full := layerRows(false, fused)
	if len(full) != 6 {
		t.Fatalf("full set has %d fused rows, want 6 (2 scales x 3 sets)", len(full))
	}
	if n := len(layerRows(true, fused)); n != 3 {
		t.Fatalf("quick set has %d fused rows, want 3", n)
	}
	kernel := map[string]bool{}
	for _, s := range Rows(false) {
		if s.Layer == layerKernel {
			kernel[s.Name()] = true
		}
	}
	for _, s := range full {
		if n := setSize(t, s); n < 2 {
			t.Errorf("fused row %s has %d configs; fusion needs at least 2", s.Name(), n)
		}
		loop := s
		loop.Layer = layerKernel
		if !kernel[loop.Name()] {
			t.Errorf("fused row %s has no kernel row %s", s.Name(), loop.Name())
		}
	}
}

// TestDecodeMatrixPinned checks the decode rows: every trace has a flat
// and an sctz row, and no other codec appears.
func TestDecodeMatrixPinned(t *testing.T) {
	decode := func(s Spec) bool { return s.Layer == layerDecode }
	full := layerRows(false, decode)
	if len(full) != 12 {
		t.Fatalf("full set has %d decode rows, want 12 (2 scales x 3 traces x flat/sctz)", len(full))
	}
	if n := len(layerRows(true, decode)); n != 6 {
		t.Fatalf("quick set has %d decode rows, want 6", n)
	}
	codecs := map[string]map[string]bool{}
	for _, s := range full {
		if s.Set != codecFlat && s.Set != codecSCTZ {
			t.Errorf("decode row %s has unknown codec", s.Name())
		}
		trace := s.Workload + "/" + s.Scale.String()
		if codecs[trace] == nil {
			codecs[trace] = map[string]bool{}
		}
		codecs[trace][s.Set] = true
	}
	for trace, c := range codecs {
		if !c[codecFlat] || !c[codecSCTZ] {
			t.Errorf("trace %s lacks a flat or sctz row: %v", trace, c)
		}
	}
}

// pick returns the named rows of the quick set.
func pick(t *testing.T, names ...string) []Spec {
	t.Helper()
	byName := map[string]Spec{}
	for _, s := range Rows(true) {
		byName[s.Name()] = s
	}
	specs := make([]Spec, len(names))
	for i, n := range names {
		s, ok := byName[n]
		if !ok {
			t.Fatalf("no quick row %s", n)
		}
		specs[i] = s
	}
	return specs
}

func TestRunnerReportAndGate(t *testing.T) {
	specs := pick(t,
		"kernel/MV/test/vl64-bb1",
		"fused/MV/test/cache-size-6", "kernel/MV/test/cache-size-6",
		"decode/MV/test/flat", "decode/MV/test/sctz")
	r := Runner{MinTime: time.Millisecond}
	report, err := r.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rows) != len(specs) {
		t.Fatalf("got %d rows, want %d", len(report.Rows), len(specs))
	}
	rows := map[string]Row{}
	for i, row := range report.Rows {
		if row.Name != specs[i].Name() {
			t.Errorf("row %d is %s, want %s", i, row.Name, specs[i].Name())
		}
		if row.Records <= 0 || row.Iters < minIters || row.NsPerRecord <= 0 || row.Configs <= 0 {
			t.Errorf("row %s has implausible measurement: %+v", row.Name, row)
		}
		if (row.Layer == layerDecode) != (row.Bytes > 0) || (row.Layer == layerDecode) != (row.AMAT == 0) {
			t.Errorf("row %s: bytes %d / amat %g do not fit layer %s", row.Name, row.Bytes, row.AMAT, row.Layer)
		}
		rows[row.Name] = row
	}
	// The two legs of a unit share one interleaved loop, and fused and
	// kernel passes over one set give one answer.
	fused, loop := rows["fused/MV/test/cache-size-6"], rows["kernel/MV/test/cache-size-6"]
	if fused.Iters != loop.Iters || fused.Configs != 6 || fused.AMAT != loop.AMAT {
		t.Errorf("fused leg %+v and kernel leg %+v disagree", fused, loop)
	}
	if flat, sctz := rows["decode/MV/test/flat"], rows["decode/MV/test/sctz"]; sctz.Bytes >= flat.Bytes {
		t.Errorf("sctz %d bytes not smaller than flat %d", sctz.Bytes, flat.Bytes)
	}

	path := filepath.Join(t.TempDir(), "BENCH_kernel.json")
	if err := WriteJSON(path, report); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Rows) != len(report.Rows) || loaded.Schema != SchemaID {
		t.Fatalf("round trip lost data: %+v", loaded)
	}

	// A test-scale run measures no paper-scale codec pair, so the
	// corpus-weighted sctz <= flat budget has nothing to check.
	if checked, err := CodecBudget(report); checked || err != nil {
		t.Fatalf("test-scale rows: codec budget checked %v, err %v", checked, err)
	}
	// The budget holds a run to itself: paper-scale sctz at 1.05x flat
	// fails, at 0.95x it passes.
	paper := workloads.ScalePaper.String()
	overBudget := &Report{Schema: SchemaID, Rows: []Row{
		{Name: rowName(layerDecode, "MV", paper, codecFlat), Layer: layerDecode, Workload: "MV", Scale: paper,
			Set: codecFlat, Configs: 1, Records: 1000, NsPerRecord: 10},
		{Name: rowName(layerDecode, "MV", paper, codecSCTZ), Layer: layerDecode, Workload: "MV", Scale: paper,
			Set: codecSCTZ, Configs: 1, Records: 1000, NsPerRecord: 10.5},
	}}
	checked, err := CodecBudget(overBudget)
	if !checked || err == nil || !strings.Contains(err.Error(), "corpus-weighted") {
		t.Fatalf("paper-scale sctz at 1.05x flat: checked %v, error %v does not name the corpus-weighted budget", checked, err)
	}
	if mdOver := Markdown(overBudget); !strings.Contains(mdOver, "corpus-weighted") {
		t.Errorf("report lacks the corpus-weighted line:\n%s", mdOver)
	}
	overBudget.Rows[1].NsPerRecord = 9.5
	if checked, err := CodecBudget(overBudget); !checked || err != nil {
		t.Fatalf("paper-scale sctz at 0.95x flat: checked %v, err %v", checked, err)
	}

	md := Markdown(report)
	for _, row := range report.Rows {
		if !strings.Contains(md, row.Name) {
			t.Errorf("markdown report missing row %s", row.Name)
		}
	}
	for _, want := range []string{"fused speedup", "compression"} {
		if !strings.Contains(md, want) {
			t.Errorf("report lacks the derived %q line:\n%s", want, md)
		}
	}
}

// TestCommittedBaselineCoversEveryRow holds the committed trajectory
// record to the pinned rows: BENCH_kernel.json must carry every row, so a
// renamed or added row is recorded with the change that makes it.
func TestCommittedBaselineCoversEveryRow(t *testing.T) {
	base, err := ReadJSON(filepath.Join("..", "..", "BENCH_kernel.json"))
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, r := range base.Rows {
		have[r.Name] = true
	}
	for _, s := range Rows(false) {
		if !have[s.Name()] {
			t.Errorf("BENCH_kernel.json has no row %s; regenerate it with make perf", s.Name())
		}
	}
}

func TestReadJSONRejectsForeignSchema(t *testing.T) {
	for _, schema := range []string{"something/else", "softcache-perf/v4"} {
		path := filepath.Join(t.TempDir(), "bad.json")
		if err := WriteJSON(path, &Report{Schema: schema}); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadJSON(path); err == nil {
			t.Fatalf("schema %q accepted", schema)
		}
	}
}
