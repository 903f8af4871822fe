package bench

import (
	"fmt"

	"softcache/internal/metrics"
	"softcache/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "1a",
		Title: "Distance of reuse (in references): distribution per benchmark",
		Run:   runFig1a,
	})
	register(Experiment{
		ID:    "1b",
		Title: "Vector length (bytes) of reference streams: distribution per benchmark",
		Run:   runFig1b,
	})
}

// runFig1a reproduces fig. 1a: for each benchmark, the fraction of
// references in each reuse-distance bucket. The paper's headline
// observations: a sizable fraction of data is used once or few times, and
// reuse distances beyond 10³ references are common — longer than the
// ~2500-reference average lifetime of a line in an 8 KiB cache.
func runFig1a(ctx *Context) (*Report, error) {
	r := &Report{ID: "1a", Title: "Distance of Reuse"}
	tbl := metrics.NewTable("Fraction of references per reuse distance", "benchmark", metrics.ReuseBuckets...)
	names := workloads.Benchmarks()
	dists := make([][5]float64, len(names))
	err := ctx.eachWorkload(names, func(rc *Context, i int) error {
		t, err := rc.Trace(names[i])
		if err != nil {
			return err
		}
		dists[i] = metrics.ReuseDistances(t, 8)
		return nil
	})
	if err != nil {
		return nil, err
	}
	longShare := 0.0
	for i, d := range dists {
		tbl.AddRow(names[i], d[0], d[1], d[2], d[3], d[4])
		longShare += d[3] + d[4]
	}
	longShare /= float64(tbl.Rows())
	r.Tables = append(r.Tables, tbl)
	r.check("long reuse distances (>10^3 refs) are common",
		longShare > 0.10, fmt.Sprintf("mean share %.2f", longShare))
	noReuse := columnGeomean(tbl, 0)
	r.check("a sizable amount of data is used only once or few times",
		noReuse > 0.005 || tbl.Value(tbl.Rows()-1, 0) > 0.001,
		fmt.Sprintf("geomean no-reuse share %.3f", noReuse))
	return r, nil
}

// runFig1b reproduces fig. 1b: vector lengths of the streams issued by each
// load/store instruction. The paper's observation: vectors are often longer
// than the 32-byte line of small on-chip caches, so there is spatial
// locality a fixed short line cannot exploit.
func runFig1b(ctx *Context) (*Report, error) {
	r := &Report{ID: "1b", Title: "Vector Length of Reference Streams"}
	tbl := metrics.NewTable("Fraction of references per vector length", "benchmark", metrics.VectorBuckets...)
	names := workloads.Benchmarks()
	dists := make([][6]float64, len(names))
	err := ctx.eachWorkload(names, func(rc *Context, i int) error {
		t, err := rc.Trace(names[i])
		if err != nil {
			return err
		}
		dists[i] = metrics.VectorLengths(t, metrics.VectorParams{})
		return nil
	})
	if err != nil {
		return nil, err
	}
	beyondLine := 0.0
	for i, d := range dists {
		tbl.AddRow(names[i], d[0], d[1], d[2], d[3], d[4], d[5])
		beyondLine += d[1] + d[2] + d[3] + d[4] + d[5]
	}
	beyondLine /= float64(tbl.Rows())
	r.Tables = append(r.Tables, tbl)
	r.check("vector lengths often exceed the 32-byte line",
		beyondLine > 0.35, fmt.Sprintf("mean share beyond 32B: %.2f", beyondLine))
	return r, nil
}
