package bench

import (
	"fmt"

	"softcache/internal/core"
	"softcache/internal/locality"
	"softcache/internal/metrics"
	"softcache/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "12sw",
		Title: "Software prefetching (§4.4 extension): explicit PREFETCH instructions vs the hardware scheme",
		Run:   runFig12SW,
	})
}

// runFig12SW extends fig. 12 with the software-prefetch variant the paper
// sketches but does not evaluate: the bounce-back cache is the prefetch
// buffer and "distinctive load/store instructions" (our PREFETCH records)
// carry the requests. Expected shape: software prefetch with an adequate
// distance performs in the same band as the hardware progressive scheme,
// and both beat plain Soft.
func runFig12SW(ctx *Context) (*Report, error) {
	r := &Report{ID: "12sw", Title: "Software Prefetching (extension)"}
	distances := []int{2, 4, 8}
	cols := []string{"Soft", "Soft+HWpf"}
	for _, d := range distances {
		cols = append(cols, fmt.Sprintf("Soft+SWpf(d=%d)", d))
	}
	tbl := metrics.NewTable("AMAT (cycles)", "benchmark", cols...)

	// Each benchmark is 1+len(distances) runs: the cached trace under
	// Soft and Soft+HWpf, then one prefetching variant per distance.
	names := workloads.Benchmarks()
	per := 1 + len(distances)
	runs := make([][]float64, len(names)*per)
	err := ctx.eachWorkload(repeatEach(names, per), func(rc *Context, i int) error {
		name, k := names[i/per], i%per
		if k == 0 {
			base, err := rc.SimulateMany(name, []core.Config{core.Soft(), core.WithPrefetch(core.Soft(), true)})
			if err != nil {
				return err
			}
			runs[i] = []float64{base[0].AMAT(), base[1].AMAT()}
			return nil
		}
		p, err := workloads.BuildProgram(name, rc.Scale)
		if err != nil {
			return err
		}
		if _, err := locality.InsertPrefetches(p, distances[k-1]); err != nil {
			return err
		}
		res, err := rc.simulateProgram(p, core.Soft())
		if err != nil {
			return err
		}
		runs[i] = []float64{res[0].AMAT()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for b, name := range names {
		row := make([]float64, 0, len(cols))
		for _, run := range runs[b*per : (b+1)*per] {
			row = append(row, run...)
		}
		tbl.AddRow(name, row...)
	}
	r.Tables = append(r.Tables, tbl)

	gSoft := columnGeomean(tbl, 0)
	gHW := columnGeomean(tbl, 1)
	best := gHW
	bestCol := "hardware"
	for i := 2; i < len(cols); i++ {
		if g := columnGeomean(tbl, i); g < best {
			best, bestCol = g, cols[i]
		}
	}
	gSW4 := columnGeomean(tbl, 3) // d=4
	r.check("software prefetching improves on plain Soft",
		gSW4 < gSoft, fmt.Sprintf("geomean %.3f vs %.3f", gSW4, gSoft))
	r.check("software prefetching lands in the hardware scheme's band",
		gSW4 < 1.25*gHW, fmt.Sprintf("geomean sw(d=4) %.3f vs hw %.3f", gSW4, gHW))
	r.Notes = append(r.Notes,
		fmt.Sprintf("best overall: %s (geomean %.3f)", bestCol, best))
	return r, nil
}
