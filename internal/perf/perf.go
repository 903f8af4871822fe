// Package perf is the kernel performance-regression suite: a pinned set
// of rows, each the cost of one pass over one trace in ns/record, run
// through the experiment harness and emitted as machine-readable JSON
// (BENCH_kernel.json) plus a markdown report. Two revisions are compared
// by running each one's own suite in alternating pairs
// (cmd/softcache-benchpair -workload perf); the one check a run makes of
// itself is CodecBudget.
//
// A row is (layer, workload, scale, set). Three layers are measured:
//
//   - kernel: one single-config core.Run pass per config in the
//     set;
//   - fused: one core.Run pass for the whole set;
//   - decode: one drain of the trace through one codec, so the set is
//     "flat" or "sctz".
//
// The rows are deliberately few and fixed: their job is not design-space
// exploration (softcache-sweep does that) but catching throughput and
// allocation regressions in the hot loops — Reader.ReadBatch, the SCTZ
// decoder, the direct-mapped hit path, the miss/eviction scan — under the
// mechanisms that stress each of them.
package perf

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"softcache/internal/core"
	"softcache/internal/harness"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

// The measured layers.
const (
	layerKernel = "kernel"
	layerFused  = "fused"
	layerDecode = "decode"
)

// The decode layer's sets: the flat SCTR codec and the compressed SCTZ one.
const (
	codecFlat = "flat"
	codecSCTZ = "sctz"
)

// Spec is one pinned row: a layer's pass over one (workload, scale)
// trace with one config set (kernel, fused) or one codec (decode).
type Spec struct {
	Layer    string
	Workload string
	Scale    workloads.Scale
	Set      string
}

// Name is the row's stable identity, layer/workload/scale/set: reports
// and paired runs match rows by it.
func (s Spec) Name() string {
	return rowName(s.Layer, s.Workload, s.Scale.String(), s.Set)
}

func rowName(layer, workload, scale, set string) string {
	return layer + "/" + workload + "/" + scale + "/" + set
}

// unit keys the rows that are timed together because the report compares
// them: the kernel and fused legs of one set, the two codecs of one trace.
func (s Spec) unit() string {
	set := s.Set
	if s.Layer == layerDecode {
		set = layerDecode
	}
	return s.Workload + "/" + s.Scale.String() + "/" + set
}

// softGrid is the soft cache over the virtual-line × bounce-back axes,
// each point named as its one-config set ("vl64-bb1").
func softGrid() (names []string, cfgs []core.Config) {
	for _, vl := range []int{0, 64, 256} {
		for _, bb := range []bool{false, true} {
			cfg := core.Soft()
			cfg.VirtualLineSize = vl
			cfg.UseSpatialTags = vl > core.DefaultLineSize
			bbTag := 0
			if bb {
				bbTag = 1
			} else {
				cfg.BounceBackLines = 0
				cfg.BounceBackEnabled = false
				cfg.UseTemporalTags = false
			}
			names = append(names, fmt.Sprintf("vl%d-bb%d", vl, bbTag))
			cfgs = append(cfgs, cfg)
		}
	}
	return names, cfgs
}

// Configs builds the row's config set. Set names are pinned: the same
// name always denotes the same ordered config list, so a row stays
// comparable across runs and revisions.
func (s Spec) Configs() ([]core.Config, error) {
	switch s.Set {
	case "size-line-12":
		// The joint cache-size x line-size axis of the paper's standard
		// cache: a hit-dominated set where decode is a large share of the
		// record budget, so fusion pays the most.
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
		// The whole soft grid: a miss- and mechanism-heavy set where
		// simulation dominates and fusion helps least. Kept as the honest
		// lower bound of the fused speedup.
		_, cfgs := softGrid()
		return cfgs, nil
	}
	names, cfgs := softGrid()
	for i, name := range names {
		if name == s.Set {
			return cfgs[i : i+1], nil
		}
	}
	return nil, fmt.Errorf("perf: unknown config set %q", s.Set)
}

// Rows returns the pinned rows. quick drops the paper-scale rows (paired
// runs); the full set is the trajectory record.
//
//   - kernel over each one-config point of the soft grid on MV;
//   - fused and kernel on the same multi-config set, the pair whose ratio
//     is the fused speedup;
//   - decode flat and sctz on one corpus trace: a dense strided kernel
//     (MV, the compressor's best case), an irregular sparse one (SpMV, its
//     escape-heavy worst) and a butterfly (FFT, in between).
func Rows(quick bool) []Spec {
	scales := []workloads.Scale{workloads.ScaleTest, workloads.ScalePaper}
	if quick {
		scales = scales[:1]
	}
	points, _ := softGrid()
	sets := []struct{ workload, set string }{
		{"MDG", "size-line-12"},
		{"MV", "cache-size-6"},
		{"MV", "soft-matrix-6"},
	}
	var specs []Spec
	for _, scale := range scales {
		for _, p := range points {
			specs = append(specs, Spec{layerKernel, "MV", scale, p})
		}
	}
	for _, scale := range scales {
		for _, s := range sets {
			specs = append(specs, Spec{layerFused, s.workload, scale, s.set}, Spec{layerKernel, s.workload, scale, s.set})
		}
	}
	for _, scale := range scales {
		for _, w := range []string{"MV", "SpMV", "FFT"} {
			specs = append(specs, Spec{layerDecode, w, scale, codecFlat}, Spec{layerDecode, w, scale, codecSCTZ})
		}
	}
	return specs
}

// Row is one measured spec.
type Row struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Scale    string `json:"scale"`
	Set      string `json:"set"`
	Configs  int    `json:"configs"`
	Records  int    `json:"records"`
	Iters    int    `json:"iters"`
	// NsPerRecord is per record per config, so a fused set, its kernel
	// loop and a one-config row are comparable.
	NsPerRecord float64 `json:"ns_per_record"`
	// AllocsPerOp counts the allocations of one whole pass: readers,
	// pooled batches and simulator construction. The steady-state loop
	// itself is allocation-free.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// AMAT is the mean AMAT over the set (kernel and fused rows). It
	// fingerprints the simulated behaviour: a run whose AMAT moved did not
	// just get slower, it changed results.
	AMAT float64 `json:"amat,omitempty"`
	// Bytes is the encoded trace size (decode rows).
	Bytes int `json:"bytes,omitempty"`
}

// sibling names the row of another layer or set on the same trace.
func (r Row) sibling(layer, set string) string {
	return rowName(layer, r.Workload, r.Scale, set)
}

// Report is the whole suite's output, the schema of BENCH_kernel.json.
type Report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	Quick     bool   `json:"quick"`
	Rows      []Row  `json:"rows"`
}

// SchemaID identifies the BENCH_kernel.json layout this package writes
// and the only one it reads.
const SchemaID = "softcache-perf/v5"

// minIters bounds each unit's timed loop from below, with Runner.MinTime.
const minIters = 3

// seed is the workload trace seed: the paper's. A row measured at another
// seed would time a different trace.
const seed = 1

// Runner executes the rows. The zero value uses sensible defaults.
type Runner struct {
	// MinTime bounds each leg's share of its unit's timed loop from below
	// (0 = 300ms); the loop also runs at least three iterations.
	MinTime time.Duration
	// Log receives one-line progress notes when non-nil.
	Log io.Writer
}

// Run measures the specs through one harness pass with Workers pinned to
// 1 (timing runs must not share the machine), so a panicking or failing
// unit yields a structured failure record instead of torpedoing the suite.
// Specs that the report compares with each other (see Spec.unit) form one
// unit and are timed interleaved.
func (r Runner) Run(ctx context.Context, specs []Spec) (*Report, error) {
	minTime := r.MinTime
	if minTime <= 0 {
		minTime = 300 * time.Millisecond
	}

	var order []string
	legs := map[string][]Spec{}
	for _, s := range specs {
		k := s.unit()
		if _, ok := legs[k]; !ok {
			order = append(order, k)
		}
		legs[k] = append(legs[k], s)
	}
	traces := corpus{}
	units := make([]harness.Unit[[]Row], len(order))
	for i, k := range order {
		unit := legs[k]
		units[i] = harness.Unit[[]Row]{
			Key: k,
			Meta: map[string]string{
				"workload": unit[0].Workload,
				"scale":    unit[0].Scale.String(),
				"seed":     fmt.Sprint(seed),
			},
			Run: func(ctx context.Context) ([]Row, error) {
				return measure(ctx, unit, traces, minTime)
			},
		}
	}
	results, err := harness.Run(ctx, units, harness.Options{Workers: 1, Log: r.Log})
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}

	report := &Report{
		Schema:    SchemaID,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Rows:      make([]Row, 0, len(specs)),
	}
	var failures []string
	for _, res := range results {
		if !res.OK() {
			failures = append(failures, res.FailureRecord())
			continue
		}
		report.Rows = append(report.Rows, res.Value...)
	}
	if len(failures) > 0 {
		return report, fmt.Errorf("perf: %d unit(s) failed:\n%s", len(failures), strings.Join(failures, "\n"))
	}
	return report, nil
}

// corpus memoises each (workload, scale, codec) encoding, so every row
// replays the same bytes.
type corpus map[string]encoded

type encoded struct {
	data    []byte
	records int
}

func (c corpus) get(workload string, scale workloads.Scale, codec string) (encoded, error) {
	key := workload + "/" + scale.String() + "/" + codec
	if e, ok := c[key]; ok {
		return e, nil
	}
	tr, err := workloads.Trace(workload, scale, seed)
	if err != nil {
		return encoded{}, fmt.Errorf("perf: generating %s: %w", key, err)
	}
	write := trace.Write
	if codec == codecSCTZ {
		write = trace.WriteSCTZ
	}
	var buf bytes.Buffer
	if err := write(&buf, tr); err != nil {
		return encoded{}, fmt.Errorf("perf: encoding %s: %w", key, err)
	}
	c[key] = encoded{buf.Bytes(), len(tr.Records)}
	return c[key], nil
}

// leg is one spec's pass over its trace. pass returns the simulation
// results (none for decode) so the row can fingerprint them.
type leg struct {
	row  Row
	pass func() ([]core.Result, error)
}

// measure times one unit. Each leg is warmed up, its allocations are read
// around one isolated pass, and then the legs run interleaved in one
// timed loop, so drift (thermal, a neighbour's cache pressure) biases
// none of them. The loop runs at least minIters iterations and at least
// minTime per leg.
func measure(ctx context.Context, specs []Spec, traces corpus, minTime time.Duration) ([]Row, error) {
	legs := make([]leg, len(specs))
	for i, s := range specs {
		l, err := newLeg(ctx, s, traces)
		if err != nil {
			return nil, err
		}
		legs[i] = l
	}

	for _, l := range legs {
		if _, err := l.pass(); err != nil {
			return nil, err
		}
	}
	for i := range legs {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		results, err := legs[i].pass()
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		legs[i].row.AllocsPerOp = float64(after.Mallocs - before.Mallocs)
		if len(results) > 0 {
			amat := 0.0
			for _, res := range results {
				amat += res.AMAT()
			}
			legs[i].row.AMAT = amat / float64(len(results))
		}
	}

	elapsed := make([]time.Duration, len(legs))
	budget := time.Duration(len(legs)) * minTime
	iters := 0
	start := time.Now()
	for iters < minIters || time.Since(start) < budget {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i, l := range legs {
			t0 := time.Now()
			if _, err := l.pass(); err != nil {
				return nil, err
			}
			elapsed[i] += time.Since(t0)
		}
		iters++
	}

	rows := make([]Row, len(legs))
	for i, l := range legs {
		row := l.row
		row.Iters = iters
		row.NsPerRecord = float64(elapsed[i].Nanoseconds()) / (float64(row.Records) * float64(iters) * float64(row.Configs))
		rows[i] = row
	}
	return rows, nil
}

// newLeg builds a spec's pass. Kernel and fused legs replay the flat
// encoding through trace.NewReaderBytes, so they see the full streaming
// path (header parse, batched decode, simulate). Decode legs stream their
// codec over a buffered source, exactly what a file or socket feeds, and
// drain it through the pooled batch path every streaming consumer uses.
func newLeg(ctx context.Context, s Spec, traces corpus) (leg, error) {
	var cfgs []core.Config
	var open func(io.Reader) (trace.BatchReader, error)
	codec := codecFlat
	switch {
	case s.Layer == layerKernel || s.Layer == layerFused:
		var err error
		if cfgs, err = s.Configs(); err != nil {
			return leg{}, err
		}
	case s.Layer == layerDecode && s.Set == codecFlat:
		open = func(r io.Reader) (trace.BatchReader, error) { return trace.NewReader(r) }
	case s.Layer == layerDecode && s.Set == codecSCTZ:
		open = func(r io.Reader) (trace.BatchReader, error) { return trace.NewStreamReader(r) }
		codec = codecSCTZ
	default:
		return leg{}, fmt.Errorf("perf: unknown row %s", s.Name())
	}
	enc, err := traces.get(s.Workload, s.Scale, codec)
	if err != nil {
		return leg{}, err
	}
	l := leg{row: Row{
		Name:     s.Name(),
		Layer:    s.Layer,
		Workload: s.Workload,
		Scale:    s.Scale.String(),
		Set:      s.Set,
		Configs:  max(len(cfgs), 1),
		Records:  enc.records,
	}}

	switch s.Layer {
	case layerFused:
		l.pass = func() ([]core.Result, error) {
			r, err := trace.NewReaderBytes(enc.data)
			if err != nil {
				return nil, err
			}
			return core.Run(ctx, core.Job{Configs: cfgs}, r)
		}
	case layerKernel:
		l.pass = func() ([]core.Result, error) {
			out := make([]core.Result, 0, len(cfgs))
			for _, cfg := range cfgs {
				r, err := trace.NewReaderBytes(enc.data)
				if err != nil {
					return nil, err
				}
				res, err := core.Run(ctx, core.Job{Configs: []core.Config{cfg}}, r)
				if err != nil {
					return nil, err
				}
				out = append(out, res...)
			}
			return out, nil
		}
	default:
		l.row.Bytes = len(enc.data)
		l.pass = func() ([]core.Result, error) {
			r, err := open(bytes.NewReader(enc.data))
			if err != nil {
				return nil, err
			}
			return nil, drain(ctx, r, enc.records)
		}
	}
	return l, nil
}

// drain reads r to EOF and checks it yielded n records.
func drain(ctx context.Context, r trace.BatchReader, n int) error {
	total := 0
	err := trace.Each(ctx, r, func(recs []trace.Record) error {
		total += len(recs)
		return nil
	})
	if err != nil {
		return err
	}
	if total != n {
		return fmt.Errorf("perf: %s decoded %d records, want %d", r.Name(), total, n)
	}
	return nil
}
