package bench

import (
	"fmt"

	"softcache/internal/metrics"
	"softcache/internal/timing"
	"softcache/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "4a",
		Title: "Fraction of references with temporal and/or spatial tags",
		Run:   runFig4a,
	})
	register(Experiment{
		ID:    "4b",
		Title: "Time distribution of load/store instructions (cycles between references)",
		Run:   runFig4b,
	})
}

// runFig4a reproduces fig. 4a: the share of trace entries in each tag
// class. The paper's observations: the temporal bit is set in fewer than
// 30% of Perfect-Club entries (except DYF), the spatial bit in 50% or more
// for several codes, and dusty-deck codes have a large untagged share
// (calls, aliasing, references outside loops).
func runFig4a(ctx *Context) (*Report, error) {
	r := &Report{ID: "4a", Title: "Software Tag Fractions"}
	tbl := metrics.NewTable("Fraction of trace entries per tag class", "benchmark", metrics.TagClasses...)
	names := workloads.Benchmarks()
	fracs := make([][4]float64, len(names))
	err := ctx.eachWorkload(names, func(rc *Context, i int) error {
		t, err := rc.Trace(names[i])
		if err != nil {
			return err
		}
		fracs[i] = metrics.TagFractions(t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	byName := map[string][4]float64{}
	for i, f := range fracs {
		byName[names[i]] = f
		tbl.AddRow(names[i], f[0], f[1], f[2], f[3])
	}
	r.Tables = append(r.Tables, tbl)

	perfectLowTemporal := true
	detail := ""
	for _, name := range []string{"MDG", "BDN", "TRF"} {
		f := byName[name]
		tshare := f[2] + f[3]
		if tshare >= 0.50 {
			perfectLowTemporal = false
			detail += fmt.Sprintf("%s temporal %.2f; ", name, tshare)
		}
	}
	r.check("Perfect-Club-style codes have a modest temporal share (DYF excepted)",
		perfectLowTemporal, detail)

	f := byName["MDG"]
	r.check("dusty-deck codes carry a large untagged share (MDG)",
		f[0] > 0.30, fmt.Sprintf("untagged %.2f", f[0]))

	dyf := byName["DYF"]
	mdg := byName["MDG"]
	r.check("DYF has the largest temporal share among Perfect-style codes",
		dyf[2]+dyf[3] > mdg[2]+mdg[3], fmt.Sprintf("DYF %.2f vs MDG %.2f", dyf[2]+dyf[3], mdg[2]+mdg[3]))
	return r, nil
}

// runFig4b reproduces fig. 4b: the distribution of time gaps between
// consecutive load/store instructions, both as modelled (the distribution
// the generator samples) and as measured on a generated trace — they must
// agree, since the paper records the gap in the trace entry itself.
func runFig4b(ctx *Context) (*Report, error) {
	r := &Report{ID: "4b", Title: "Issue-Time Distribution"}
	tbl := metrics.NewTable("Fraction of load/store instructions per gap", "source", metrics.GapBuckets...)

	model := timing.PaperGapModel()
	modelDist := modelBuckets(model)
	tbl.AddRow("model", modelDist[:]...)

	names := []string{"MV", "LIV"}
	dists := make([][9]float64, len(names))
	err := ctx.eachWorkload(names, func(rc *Context, i int) error {
		t, err := rc.Trace(names[i])
		if err != nil {
			return err
		}
		dists[i] = metrics.GapDistribution(t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, d := range dists {
		tbl.AddRow("measured/"+names[i], d[:]...)
	}
	r.Tables = append(r.Tables, tbl)

	m := tbl.Value(0, 1) // gap = 2 cycles is the mode in fig. 4b
	r.check("the 2-cycle gap is the mode, as in fig. 4b",
		m >= tbl.Value(0, 0) && m >= tbl.Value(0, 2), fmt.Sprintf("P(2)=%.2f", m))

	// Measured distribution must track the model (same first two moments
	// within sampling noise).
	maxDelta := 0.0
	for row := 1; row < tbl.Rows(); row++ {
		for col := 0; col < len(metrics.GapBuckets); col++ {
			d := tbl.Value(row, col) - tbl.Value(0, col)
			if d < 0 {
				d = -d
			}
			if d > maxDelta {
				maxDelta = d
			}
		}
	}
	r.check("measured gaps follow the modelled distribution",
		maxDelta < 0.02, fmt.Sprintf("max bucket delta %.3f", maxDelta))
	return r, nil
}

// modelBuckets folds the continuous model into the fig. 4b buckets by
// sampling a large deterministic population.
func modelBuckets(m *timing.GapModel) [9]float64 {
	rng := timing.NewRNG(42)
	const n = 200000
	var counts [9]int
	for i := 0; i < n; i++ {
		g := m.Sample(rng)
		switch {
		case g <= 5:
			counts[g-1]++
		case g <= 10:
			counts[5]++
		case g <= 15:
			counts[6]++
		case g <= 20:
			counts[7]++
		default:
			counts[8]++
		}
	}
	var out [9]float64
	for i, c := range counts {
		out[i] = float64(c) / n
	}
	return out
}
