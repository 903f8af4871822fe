package bench

import (
	"fmt"

	"softcache/internal/core"
	"softcache/internal/metrics"
	"softcache/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "9a",
		Title: "Software control for large caches: % of misses removed",
		Run:   runFig9a,
	})
	register(Experiment{
		ID:    "9b",
		Title: "Software control for set-associative caches (AMAT)",
		Run:   runFig9b,
	})
}

// fig9aGeometries mirrors the paper's series: cache size / physical line.
// Larger caches use 64 B physical lines (the paper notes the virtual-line
// headroom is then halved); the virtual line stays at 2x physical.
var fig9aGeometries = []struct {
	label     string
	cacheSize int
	lineSize  int
}{
	{"Cs=8k,Ls=32", 8 << 10, 32},
	{"Cs=16k,Ls=64", 16 << 10, 64},
	{"Cs=32k,Ls=64", 32 << 10, 64},
	{"Cs=64k,Ls=64", 64 << 10, 64},
}

// runFig9a reproduces fig. 9a: for each geometry, the percentage of the
// standard cache's misses that the Soft design removes. Expected shape:
// gains shrink as the cache grows (working sets start to fit) but stay
// positive on the vector-dominated codes, because the compulsory-miss share
// grows with cache size.
func runFig9a(ctx *Context) (*Report, error) {
	r := &Report{ID: "9a", Title: "Software Control for Large Caches"}
	cols := make([]string, len(fig9aGeometries))
	for i, g := range fig9aGeometries {
		cols[i] = g.label
	}
	tbl := metrics.NewTable("% of misses removed by Soft", "benchmark", cols...)
	// Standard/Soft pairs for every geometry.
	cfgs := make([]core.Config, 0, 2*len(fig9aGeometries))
	for _, g := range fig9aGeometries {
		cfgs = append(cfgs,
			core.WithGeometry(core.Standard(), g.cacheSize, g.lineSize, 0),
			core.WithGeometry(core.Soft(), g.cacheSize, g.lineSize, 2*g.lineSize))
	}
	names := workloads.Benchmarks()
	results, err := ctx.simulateCells(names, cfgs)
	if err != nil {
		return nil, err
	}
	for b, res := range results {
		row := make([]float64, len(fig9aGeometries))
		for i := range fig9aGeometries {
			sres, fres := res[2*i], res[2*i+1]
			if sres.MissRatio() > 0 {
				row[i] = 100 * (sres.MissRatio() - fres.MissRatio()) / sres.MissRatio()
			}
		}
		tbl.AddRow(names[b], row...)
	}
	r.Tables = append(r.Tables, tbl)

	pos := 0
	for i := 0; i < tbl.Rows(); i++ {
		if tbl.Value(i, 0) >= -1e-9 {
			pos++
		}
	}
	r.check("Soft removes misses at the baseline geometry on every code",
		pos == tbl.Rows(), fmt.Sprintf("%d/%d", pos, tbl.Rows()))

	// Vector-access codes must keep benefiting at 64k.
	kept := 0
	for _, name := range []string{"MV", "SpMV", "NAS"} {
		for i := 0; i < tbl.Rows(); i++ {
			if tbl.RowLabelAt(i) == name && tbl.Value(i, 3) > 5 {
				kept++
			}
		}
	}
	r.check("vector-dominated codes keep significant gains at 64 KiB",
		kept >= 2, fmt.Sprintf("%d/3 codes above 5%%", kept))
	return r, nil
}

// runFig9b reproduces fig. 9b: 2-way baseline, 2-way + victim cache,
// Soft 2-way, and the simplified Soft 2-way (temporal-priority replacement,
// no bounce-back cache). Expected shape: software assistance still helps a
// set-associative cache, and the much cheaper simplified variant performs
// nearly as well as the full one.
func runFig9b(ctx *Context) (*Report, error) {
	r := &Report{ID: "9b", Title: "Software Control for Set-Associative Caches"}
	twoWay := core.SetAssoc(core.Standard(), 2)
	twoWayVictim := core.SetAssoc(core.Victim(), 2)
	soft2 := core.SetAssoc(core.Soft(), 2)
	simpl2 := core.SimplifiedSoftAssoc(2)

	tbl, err := amatTable(ctx, "AMAT (cycles)", workloads.Benchmarks(), []namedConfig{
		{"2-way", twoWay},
		{"2-way+victim", twoWayVictim},
		{"Soft 2-way", soft2},
		{"Simplified", simpl2},
	}, amat)
	if err != nil {
		return nil, err
	}
	r.Tables = append(r.Tables, tbl)

	wins, rows := columnWins(tbl, 2, 0, 1e-9)
	r.check("Soft 2-way improves on the plain 2-way cache for most codes",
		wins >= rows-1, fmt.Sprintf("%d/%d", wins, rows))

	gSoft, gSimpl := columnGeomean(tbl, 2), columnGeomean(tbl, 3)
	r.check("the simplified variant performs nearly as well as full Soft 2-way",
		gSimpl < 1.10*gSoft, fmt.Sprintf("geomean %.3f vs %.3f", gSimpl, gSoft))

	gVic, g2 := columnGeomean(tbl, 1), columnGeomean(tbl, 0)
	r.check("victim caching and set-associativity are merely redundant",
		gVic > 0.93*g2, fmt.Sprintf("geomean %.3f vs %.3f", gVic, g2))
	return r, nil
}
