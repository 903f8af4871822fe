package bench

import (
	"fmt"

	"softcache/internal/core"
	"softcache/internal/metrics"
	"softcache/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "10a",
		Title: "Software control on the most time-consuming Perfect-Club subroutines (AMAT)",
		Run:   runFig10a,
	})
	register(Experiment{
		ID:    "10b",
		Title: "Influence of memory latency: AMAT(Standard) - AMAT(Soft) for 5-30 cycles",
		Run:   runFig10b,
	})
}

// runFig10a reproduces fig. 10a: the hot subroutines traced alone, fully
// instrumented (no calls, no aliasing, loops re-ordered). Expected shape:
// once the compiler limitations are lifted, the relative improvements grow
// well beyond the whole-program results of fig. 6a.
func runFig10a(ctx *Context) (*Report, error) {
	r := &Report{ID: "10a", Title: "Hot Perfect-Club Subroutines, Fully Instrumented"}
	tbl, err := amatTable(ctx, "AMAT (cycles)", workloads.Kernels(), fourConfigs(), amat)
	if err != nil {
		return nil, err
	}
	r.Tables = append(r.Tables, tbl)

	wins, rows := columnWins(tbl, 3, 0, 1e-9)
	r.check("Soft is safe on every kernel", wins == rows, fmt.Sprintf("%d/%d", wins, rows))

	// Compare the mean relative gain against the whole-program runs for
	// the codes present in both experiments.
	// Rows 2i and 2i+1 are base i's kernel and whole program.
	bases := []string{"MDG", "BDN", "DYF", "TRF"}
	gainNames := make([]string, 0, 2*len(bases))
	for _, base := range bases {
		gainNames = append(gainNames, base+"-kernel", base)
	}
	results, err := ctx.simulateCells(gainNames, []core.Config{core.Standard(), core.Soft()})
	if err != nil {
		return nil, err
	}
	gain := func(res []core.Result) float64 { return 1 - res[1].AMAT()/res[0].AMAT() }
	kernelGain, fullGain := 0.0, 0.0
	for i := range bases {
		kernelGain += gain(results[2*i])
		fullGain += gain(results[2*i+1])
	}
	kernelGain /= float64(len(bases))
	fullGain /= float64(len(bases))
	r.check("full instrumentation yields larger relative gains than whole programs",
		kernelGain > fullGain,
		fmt.Sprintf("mean gain kernels %.0f%% vs whole programs %.0f%%", kernelGain*100, fullGain*100))
	return r, nil
}

// fig10bLatencies is the paper's x axis.
var fig10bLatencies = []int{5, 10, 15, 20, 25, 30}

// runFig10b reproduces fig. 10b: the absolute AMAT advantage of Soft over
// Standard as memory latency grows. Expected shape: little or no gain below
// ~10 cycles (the extra transfer cycles of virtual lines are not yet
// amortised), then a very regular increase with latency.
func runFig10b(ctx *Context) (*Report, error) {
	r := &Report{ID: "10b", Title: "Influence of Memory Latency"}
	cols := make([]string, len(fig10bLatencies))
	for i, l := range fig10bLatencies {
		cols[i] = fmt.Sprintf("lat=%d", l)
	}
	tbl := metrics.NewTable("AMAT(Standard) - AMAT(Soft)", "benchmark", cols...)
	// The whole latency axis, Standard and Soft interleaved.
	cfgs := make([]core.Config, 0, 2*len(fig10bLatencies))
	for _, lat := range fig10bLatencies {
		cfgs = append(cfgs,
			core.WithLatency(core.Standard(), lat),
			core.WithLatency(core.Soft(), lat))
	}
	names := workloads.Benchmarks()
	results, err := ctx.simulateCells(names, cfgs)
	if err != nil {
		return nil, err
	}
	for b, res := range results {
		row := make([]float64, len(fig10bLatencies))
		for i := range fig10bLatencies {
			row[i] = res[2*i].AMAT() - res[2*i+1].AMAT()
		}
		tbl.AddRow(names[b], row...)
	}
	r.Tables = append(r.Tables, tbl)

	// Monotone growth of the mean advantage from 10 cycles on.
	means := make([]float64, len(fig10bLatencies))
	for c := range fig10bLatencies {
		sum := 0.0
		for i := 0; i < tbl.Rows(); i++ {
			sum += tbl.Value(i, c)
		}
		means[c] = sum / float64(tbl.Rows())
	}
	mono := true
	for c := 2; c < len(means); c++ { // from lat=10 onwards
		if means[c] < means[c-1]-1e-9 {
			mono = false
		}
	}
	r.check("the advantage grows regularly with latency beyond 10 cycles",
		mono, fmt.Sprintf("means %v", fmt.Sprintf("%.2f %.2f %.2f %.2f %.2f %.2f", means[0], means[1], means[2], means[3], means[4], means[5])))
	r.check("gains at 30 cycles exceed gains at 5 cycles",
		means[5] > means[0], fmt.Sprintf("%.2f vs %.2f", means[5], means[0]))
	return r, nil
}
