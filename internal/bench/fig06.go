package bench

import (
	"fmt"

	"softcache/internal/core"
	"softcache/internal/metrics"
	"softcache/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "6a",
		Title: "Performance of software control (AMAT): Stand, Soft-temporal, Soft-spatial, Soft",
		Run:   runFig6a,
	})
	register(Experiment{
		ID:    "6b",
		Title: "Repartition of cache hits: main cache vs bounce-back cache (Soft)",
		Run:   runFig6b,
	})
}

// fourConfigs is the column set shared by figs. 6a, 7a and 7b.
func fourConfigs() []namedConfig {
	return []namedConfig{
		{"Standard", core.Standard()},
		{"Soft-T", core.SoftTemporal()},
		{"Soft-S", core.SoftSpatial()},
		{"Soft", core.Soft()},
	}
}

// runFig6a reproduces fig. 6a. Expected shape (§3.2): software-assisted
// caches always at least match the standard cache; the virtual-line
// mechanism alone is the stronger of the two; the combination wins overall.
func runFig6a(ctx *Context) (*Report, error) {
	r := &Report{ID: "6a", Title: "Performance of Software Control (AMAT)"}
	tbl, err := amatTable(ctx, "AMAT (cycles)", workloads.Benchmarks(), fourConfigs(), amat)
	if err != nil {
		return nil, err
	}
	r.Tables = append(r.Tables, tbl)

	wins, rows := columnWins(tbl, 3, 0, 1e-9)
	r.check("software-assisted caches are safe (Soft <= Standard everywhere)",
		wins == rows, fmt.Sprintf("%d/%d", wins, rows))

	sWins, _ := columnWins(tbl, 2, 1, 1e-9)
	r.check("the virtual-line mechanism alone helps more codes than bounce-back alone",
		sWins >= rows/2+1, fmt.Sprintf("spatial wins %d/%d", sWins, rows))

	soft, softS, softT := columnGeomean(tbl, 3), columnGeomean(tbl, 2), columnGeomean(tbl, 1)
	best := softS
	if softT < best {
		best = softT
	}
	r.check("combining both mechanisms gives the best overall AMAT",
		soft <= best*1.02, fmt.Sprintf("geomean soft %.3f vs best single %.3f", soft, best))
	return r, nil
}

// runFig6b reproduces fig. 6b: under the full Soft configuration, the share
// of hits served by the main cache vs the bounce-back cache. The paper's
// observation: most hits stay 1-cycle main-cache hits (so the AMAT gain
// tracks the miss-ratio gain).
func runFig6b(ctx *Context) (*Report, error) {
	r := &Report{ID: "6b", Title: "Repartition of Cache Hits"}
	tbl := metrics.NewTable("Share of hits per structure (Soft)", "benchmark", "main cache", "bounce-back")
	names := workloads.Benchmarks()
	results, err := ctx.simulateCells(names, []core.Config{core.Soft()})
	if err != nil {
		return nil, err
	}
	minMain := 1.0
	for i, res := range results {
		mf := res[0].Stats.MainHitFraction()
		tbl.AddRow(names[i], mf, 1-mf)
		if mf < minMain {
			minMain = mf
		}
	}
	r.Tables = append(r.Tables, tbl)
	r.check("most cache hits are main-cache hits",
		minMain > 0.60, fmt.Sprintf("min main-hit share %.2f", minMain))
	return r, nil
}
