// Package perf is the kernel performance-regression suite: a pinned
// benchmark matrix over the streaming simulation kernel (trace size ×
// virtual-line size × bounce-back on/off), run through the experiment
// harness and emitted as machine-readable JSON (BENCH_kernel.json) plus a
// markdown delta report against a previous run.
//
// The matrix is deliberately small and fixed: its job is not design-space
// exploration (softcache-sweep does that) but catching throughput and
// allocation regressions in the hot loop — Reader.ReadBatch, the
// direct-mapped hit path, the miss/eviction scan — under the mechanisms
// that stress each of them.
package perf

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"softcache/internal/core"
	"softcache/internal/harness"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

// CaseSpec is one pinned point of the benchmark matrix.
type CaseSpec struct {
	Name        string          `json:"name"`
	Workload    string          `json:"workload"`
	Scale       workloads.Scale `json:"-"`
	ScaleName   string          `json:"scale"`
	VirtualLine int             `json:"virtual_line"` // bytes; 0 = plain lines
	BounceBack  bool            `json:"bounce_back"`
}

// Config builds the design point for the case: the paper's soft cache with
// the virtual-line and bounce-back axes set per the spec.
func (c CaseSpec) Config() core.Config {
	cfg := core.Soft()
	cfg.VirtualLineSize = c.VirtualLine
	cfg.UseSpatialTags = c.VirtualLine > core.DefaultLineSize
	if !c.BounceBack {
		cfg.BounceBackLines = 0
		cfg.BounceBackEnabled = false
		cfg.UseTemporalTags = false
		cfg.BounceBackCycles = 0
		cfg.SwapLockCycles = 0
	}
	return cfg
}

// MatrixSpec is one pinned fused-matrix point: a config group simulated
// over one (workload, scale) trace both fused (core.SimulateMany — one
// decode pass feeds every config) and looped (one single-config
// SimulateMany pass per config). The pair quantifies the decode
// amortisation the fused kernel buys, and pins it against regression.
type MatrixSpec struct {
	Name      string          `json:"name"`
	Workload  string          `json:"workload"`
	Scale     workloads.Scale `json:"-"`
	ScaleName string          `json:"scale"`
	Group     string          `json:"group"`
}

// Configs builds the spec's config group. Group ids are pinned: the same
// name always denotes the same ordered config list, so baseline rows stay
// comparable across runs.
func (m MatrixSpec) Configs() ([]core.Config, error) {
	switch m.Group {
	case "size-line-12":
		// The joint cache-size x line-size axis of the paper's standard
		// cache: a hit-dominated group where decode is a large share of
		// the record budget, so fusion pays the most.
		var cfgs []core.Config
		for _, kb := range []int{32, 64, 128, 256} {
			for _, ln := range []int{32, 64, 128} {
				cfg := core.Standard()
				cfg.CacheSize = kb << 10
				cfg.LineSize = ln
				cfgs = append(cfgs, cfg)
			}
		}
		return cfgs, nil
	case "cache-size-6":
		// Figure 3's cache-size axis on the standard cache.
		var cfgs []core.Config
		for _, kb := range []int{8, 16, 32, 64, 128, 256} {
			cfg := core.Standard()
			cfg.CacheSize = kb << 10
			cfgs = append(cfgs, cfg)
		}
		return cfgs, nil
	case "soft-matrix-6":
		// The case matrix's own axes (virtual line x bounce-back) on the
		// soft cache: a miss- and mechanism-heavy group where simulation
		// dominates and fusion helps least. Kept as the honest lower
		// bound of the speedup column.
		var cfgs []core.Config
		for _, vl := range []int{0, 64, 256} {
			for _, bb := range []bool{false, true} {
				cfgs = append(cfgs, CaseSpec{VirtualLine: vl, BounceBack: bb}.Config())
			}
		}
		return cfgs, nil
	default:
		return nil, fmt.Errorf("perf: unknown fused matrix group %q", m.Group)
	}
}

// FusedMatrix returns the pinned fused-vs-looped matrix. quick drops the
// paper-scale rows, mirroring Matrix.
func FusedMatrix(quick bool) []MatrixSpec {
	scales := []workloads.Scale{workloads.ScaleTest, workloads.ScalePaper}
	if quick {
		scales = scales[:1]
	}
	rows := []struct{ workload, group string }{
		{"MDG", "size-line-12"},
		{"MV", "cache-size-6"},
		{"MV", "soft-matrix-6"},
	}
	var specs []MatrixSpec
	for _, scale := range scales {
		for _, r := range rows {
			s := MatrixSpec{
				Workload:  r.workload,
				Scale:     scale,
				ScaleName: scale.String(),
				Group:     r.group,
			}
			s.Name = fmt.Sprintf("fused/%s/%s/%s", s.Workload, s.ScaleName, s.Group)
			specs = append(specs, s)
		}
	}
	return specs
}

// Matrix returns the pinned benchmark matrix. quick drops the paper-scale
// rows (CI smoke runs); the full matrix is the release measurement.
func Matrix(quick bool) []CaseSpec {
	scales := []workloads.Scale{workloads.ScaleTest, workloads.ScalePaper}
	if quick {
		scales = scales[:1]
	}
	var specs []CaseSpec
	for _, scale := range scales {
		for _, vl := range []int{0, 64, 256} {
			for _, bb := range []bool{false, true} {
				s := CaseSpec{
					Workload:    "MV",
					Scale:       scale,
					ScaleName:   scale.String(),
					VirtualLine: vl,
					BounceBack:  bb,
				}
				bbTag := "bb0"
				if bb {
					bbTag = "bb1"
				}
				s.Name = fmt.Sprintf("%s/%s/vl%d/%s", s.Workload, s.ScaleName, vl, bbTag)
				specs = append(specs, s)
			}
		}
	}
	return specs
}

// Measurement is the result of one case.
type Measurement struct {
	CaseSpec
	Records       int     `json:"records"`
	Iters         int     `json:"iters"`
	NsPerRecord   float64 `json:"ns_per_record"`
	RecordsPerSec float64 `json:"records_per_sec"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	// AMAT fingerprints the simulated behaviour: a perf run whose AMAT
	// moved did not just get slower, it changed results.
	AMAT float64 `json:"amat"`
}

// MatrixMeasurement is the result of one fused-matrix row: the whole
// config group's per-record cost under the fused kernel and under the
// per-config loop, and the wall-clock speedup between them.
type MatrixMeasurement struct {
	MatrixSpec
	Configs int `json:"configs"`
	Records int `json:"records"`
	Iters   int `json:"iters"`
	// FusedNsPerRecord and LoopNsPerRecord are normalised per record per
	// config, so they are comparable to the case matrix's ns_per_record.
	FusedNsPerRecord float64 `json:"fused_ns_per_record"`
	LoopNsPerRecord  float64 `json:"loop_ns_per_record"`
	// Speedup is loop wall-clock over fused wall-clock for the whole group.
	Speedup float64 `json:"speedup"`
	// AllocsPerOp counts allocations of one whole fused pass (simulator
	// construction included; the steady-state loop itself is alloc-free).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// MeanAMAT fingerprints behaviour across the group, like Measurement's
	// AMAT does for one config.
	MeanAMAT float64 `json:"mean_amat"`
}

// Report is the whole suite's output, the schema of BENCH_kernel.json.
type Report struct {
	Schema    string        `json:"schema"`
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	CPUs      int           `json:"cpus"`
	Quick     bool          `json:"quick"`
	Cases     []Measurement `json:"cases"`
	// Matrix holds the fused-vs-looped rows; absent in v1 reports.
	Matrix []MatrixMeasurement `json:"matrix,omitempty"`
	// Decode holds the trace-codec rows (flat vs SCTZ streaming decode);
	// absent before v4.
	Decode []DecodeMeasurement `json:"decode,omitempty"`
}

// SchemaID identifies the BENCH_kernel.json layout this package writes.
// v4 added the decode matrix (flat vs SCTZ codec rows); v3 (no decode
// rows), v2 (no sharded rows either) and v1 (cases only) still load.
// Reports from v3 on may carry a "sharded" array of the since-removed
// set-sharded kernel; it is ignored on load.
const SchemaID = "softcache-perf/v4"

// schemaV3 added the set-sharded rows.
const schemaV3 = "softcache-perf/v3"

// schemaV2 added the fused matrix rows to v1's cases.
const schemaV2 = "softcache-perf/v2"

// schemaV1 is the original layout: the case matrix alone. ReadJSON
// keeps accepting old schemas so pre-bump baselines gate what they have.
const schemaV1 = "softcache-perf/v1"

// Runner executes the matrix. The zero value uses sensible defaults.
type Runner struct {
	// MinIters and MinTime bound each case's measurement loop from below:
	// the loop runs until both are met. Zero values default to 3 iterations
	// and 300ms (1 and 50ms in quick runs — set them explicitly).
	MinIters int
	MinTime  time.Duration
	// Seed selects the workload trace seed (0 = 1, the paper's).
	Seed uint64
	// Log receives one-line progress notes when non-nil.
	Log io.Writer
}

// Run measures every case of the matrix sequentially (Workers is pinned to
// 1: timing runs must not share the machine with each other) through the
// experiment harness, so a panicking or failing case yields a structured
// failure record instead of torpedoing the suite. The fused rows are
// measured after the cases, one harness unit per (workload, config-group),
// and the decode rows last, one unit per corpus trace with both codecs
// interleaved.
func (r Runner) Run(ctx context.Context, specs []CaseSpec, fused []MatrixSpec, decode []DecodeSpec) (*Report, error) {
	minIters := r.MinIters
	if minIters <= 0 {
		minIters = 3
	}
	minTime := r.MinTime
	if minTime <= 0 {
		minTime = 300 * time.Millisecond
	}
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}

	// Encode each distinct (workload, scale) trace once; every case replays
	// the same bytes through trace.NewReaderBytes, so the measurement sees
	// the full streaming path (header parse, batched decode, simulate).
	encoded := map[string][]byte{}
	records := map[string]int{}
	ensureTrace := func(workload, scaleName string, scale workloads.Scale) error {
		key := workload + "/" + scaleName
		if _, ok := encoded[key]; ok {
			return nil
		}
		tr, err := workloads.Trace(workload, scale, seed)
		if err != nil {
			return fmt.Errorf("perf: generating %s: %w", key, err)
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			return fmt.Errorf("perf: encoding %s: %w", key, err)
		}
		encoded[key] = buf.Bytes()
		records[key] = len(tr.Records)
		return nil
	}
	for _, s := range specs {
		if err := ensureTrace(s.Workload, s.ScaleName, s.Scale); err != nil {
			return nil, err
		}
	}
	for _, m := range fused {
		if err := ensureTrace(m.Workload, m.ScaleName, m.Scale); err != nil {
			return nil, err
		}
	}
	// Decode rows need both encodings of their corpus trace.
	encodedZ := map[string][]byte{}
	for _, d := range decode {
		key := d.Workload + "/" + d.ScaleName
		if err := ensureTrace(d.Workload, d.ScaleName, d.Scale); err != nil {
			return nil, err
		}
		if _, ok := encodedZ[key]; ok {
			continue
		}
		tr, err := workloads.Trace(d.Workload, d.Scale, seed)
		if err != nil {
			return nil, fmt.Errorf("perf: generating %s: %w", key, err)
		}
		var buf bytes.Buffer
		if err := trace.WriteSCTZ(&buf, tr); err != nil {
			return nil, fmt.Errorf("perf: encoding %s as sctz: %w", key, err)
		}
		encodedZ[key] = buf.Bytes()
	}

	units := make([]harness.Unit[Measurement], len(specs))
	for i, s := range specs {
		s := s
		key := s.Workload + "/" + s.ScaleName
		units[i] = harness.Unit[Measurement]{
			Key: s.Name,
			Meta: map[string]string{
				"workload": s.Workload,
				"scale":    s.ScaleName,
				"seed":     fmt.Sprint(seed),
			},
			Run: func(ctx context.Context) (Measurement, error) {
				return measure(ctx, s, encoded[key], records[key], minIters, minTime)
			},
		}
	}
	results, err := harness.Run(ctx, units, harness.Options{Workers: 1, Log: r.Log})
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}

	matrixUnits := make([]harness.Unit[MatrixMeasurement], len(fused))
	for i, m := range fused {
		m := m
		key := m.Workload + "/" + m.ScaleName
		matrixUnits[i] = harness.Unit[MatrixMeasurement]{
			Key: m.Name,
			Meta: map[string]string{
				"workload": m.Workload,
				"scale":    m.ScaleName,
				"group":    m.Group,
				"seed":     fmt.Sprint(seed),
			},
			Run: func(ctx context.Context) (MatrixMeasurement, error) {
				return measureMatrix(ctx, m, encoded[key], records[key], minIters, minTime)
			},
		}
	}
	matrixResults, err := harness.Run(ctx, matrixUnits, harness.Options{Workers: 1, Log: r.Log})
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}

	decodeUnits := make([]harness.Unit[DecodeMeasurement], len(decode))
	for i, d := range decode {
		d := d
		key := d.Workload + "/" + d.ScaleName
		decodeUnits[i] = harness.Unit[DecodeMeasurement]{
			Key: d.Name,
			Meta: map[string]string{
				"workload": d.Workload,
				"scale":    d.ScaleName,
				"seed":     fmt.Sprint(seed),
			},
			Run: func(ctx context.Context) (DecodeMeasurement, error) {
				return measureDecode(ctx, d, encoded[key], encodedZ[key], records[key], minIters, minTime)
			},
		}
	}
	decodeResults, err := harness.Run(ctx, decodeUnits, harness.Options{Workers: 1, Log: r.Log})
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}

	report := &Report{
		Schema:    SchemaID,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Cases:     make([]Measurement, 0, len(results)),
		Matrix:    make([]MatrixMeasurement, 0, len(matrixResults)),
	}
	var failures []string
	for _, res := range results {
		if !res.OK() {
			failures = append(failures, res.FailureRecord())
			continue
		}
		report.Cases = append(report.Cases, res.Value)
	}
	for _, res := range matrixResults {
		if !res.OK() {
			failures = append(failures, res.FailureRecord())
			continue
		}
		report.Matrix = append(report.Matrix, res.Value)
	}
	for _, res := range decodeResults {
		if !res.OK() {
			failures = append(failures, res.FailureRecord())
			continue
		}
		report.Decode = append(report.Decode, res.Value)
	}
	if len(failures) > 0 {
		return report, fmt.Errorf("perf: %d case(s) failed:\n%s", len(failures), joinLines(failures))
	}
	return report, nil
}

// measure times repeated replays of the encoded trace through the
// streaming kernel and reads the allocator's counters around the loop.
func measure(ctx context.Context, spec CaseSpec, data []byte, n, minIters int, minTime time.Duration) (Measurement, error) {
	cfg := spec.Config()
	run := func() (core.Result, error) {
		tr, err := trace.NewReaderBytes(data)
		if err != nil {
			return core.Result{}, err
		}
		results, err := core.SimulateMany(ctx, []core.Config{cfg}, tr)
		if err != nil {
			return core.Result{}, err
		}
		return results[0], nil
	}

	// Warm-up: page the trace in, grow the pools, JIT the branch history.
	last, err := run()
	if err != nil {
		return Measurement{}, err
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for iters < minIters || time.Since(start) < minTime {
		if err := ctx.Err(); err != nil {
			return Measurement{}, err
		}
		if last, err = run(); err != nil {
			return Measurement{}, err
		}
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	totalRecords := float64(n) * float64(iters)
	m := Measurement{
		CaseSpec:      spec,
		Records:       n,
		Iters:         iters,
		NsPerRecord:   float64(elapsed.Nanoseconds()) / totalRecords,
		RecordsPerSec: totalRecords / elapsed.Seconds(),
		AllocsPerOp:   float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:    float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
		AMAT:          last.AMAT(),
	}
	return m, nil
}

// measureMatrix times the fused kernel (one decode pass for the whole
// config group) against the per-config loop over the same encoded bytes,
// interleaving the two so drift (thermal, cache pressure from a neighbour)
// biases neither side.
func measureMatrix(ctx context.Context, spec MatrixSpec, data []byte, n, minIters int, minTime time.Duration) (MatrixMeasurement, error) {
	cfgs, err := spec.Configs()
	if err != nil {
		return MatrixMeasurement{}, err
	}
	fusedPass := func() ([]core.Result, error) {
		r, err := trace.NewReaderBytes(data)
		if err != nil {
			return nil, err
		}
		return core.SimulateMany(ctx, cfgs, r)
	}
	loopPass := func() error {
		for _, cfg := range cfgs {
			r, err := trace.NewReaderBytes(data)
			if err != nil {
				return err
			}
			if _, err := core.SimulateMany(ctx, []core.Config{cfg}, r); err != nil {
				return err
			}
		}
		return nil
	}

	// Warm-up both paths.
	last, err := fusedPass()
	if err != nil {
		return MatrixMeasurement{}, err
	}
	if err := loopPass(); err != nil {
		return MatrixMeasurement{}, err
	}

	// Allocation count of one whole fused pass, measured in isolation so
	// the loop pass's own allocations don't blur it.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if last, err = fusedPass(); err != nil {
		return MatrixMeasurement{}, err
	}
	runtime.ReadMemStats(&after)
	allocsPerOp := float64(after.Mallocs - before.Mallocs)

	var fusedTime, loopTime time.Duration
	iters := 0
	start := time.Now()
	for iters < minIters || time.Since(start) < 2*minTime {
		if err := ctx.Err(); err != nil {
			return MatrixMeasurement{}, err
		}
		t0 := time.Now()
		if last, err = fusedPass(); err != nil {
			return MatrixMeasurement{}, err
		}
		t1 := time.Now()
		if err := loopPass(); err != nil {
			return MatrixMeasurement{}, err
		}
		fusedTime += t1.Sub(t0)
		loopTime += time.Since(t1)
		iters++
	}

	totalRecords := float64(n) * float64(iters) * float64(len(cfgs))
	meanAMAT := 0.0
	for _, res := range last {
		meanAMAT += res.AMAT()
	}
	meanAMAT /= float64(len(cfgs))
	return MatrixMeasurement{
		MatrixSpec:       spec,
		Configs:          len(cfgs),
		Records:          n,
		Iters:            iters,
		FusedNsPerRecord: float64(fusedTime.Nanoseconds()) / totalRecords,
		LoopNsPerRecord:  float64(loopTime.Nanoseconds()) / totalRecords,
		Speedup:          float64(loopTime) / float64(fusedTime),
		AllocsPerOp:      allocsPerOp,
		MeanAMAT:         meanAMAT,
	}, nil
}

func joinLines(lines []string) string {
	var b bytes.Buffer
	for i, l := range lines {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(l)
	}
	return b.String()
}
