package bench

import (
	"fmt"

	"softcache/internal/cache"
	"softcache/internal/core"
	"softcache/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "ablations",
		Title: "Design-choice ablations called out in the paper's discussion",
		Run:   runAblations,
	})
}

// runAblations quantifies the secondary design decisions the paper
// discusses in §2.2 and §3.2:
//
//   - admitting every victim into the bounce-back cache vs only temporal
//     ones (the paper found all-victims better, "probably because of
//     spatial interferences");
//   - a fully-associative vs 4-way bounce-back cache ("a 4-way bounce-back
//     cache would perform reasonably well");
//   - 16-byte vs 32-byte physical lines under Soft ("proved to be
//     similar");
//   - the virtual-line coherence checks (skipping resident lines) vs
//     blind fetching of the whole virtual line.
func runAblations(ctx *Context) (*Report, error) {
	r := &Report{ID: "ablations", Title: "Design Ablations"}

	admitAll := core.Soft()
	admitTemporal := core.Soft()
	admitTemporal.TemporalOnlyAdmission = true

	bb4way := core.Soft()
	bb4way.BounceBackAssoc = 4

	phys16 := core.Soft()
	phys16.LineSize = 16
	phys16.VirtualLineSize = 64

	noCoherence := core.Soft()
	noCoherence.NoCoherenceChecks = true

	// Replacement policies on a plain 2-way cache: the paper uses LRU
	// everywhere; FIFO and Random are the classic alternatives.
	lru2 := core.SetAssoc(core.Standard(), 2)
	fifo2 := lru2
	fifo2.Replacement = cache.ReplaceFIFO
	rand2 := lru2
	rand2.Replacement = cache.ReplaceRandom

	// One set of cells for all three tables, so the pass has one ramp-down
	// tail instead of three.
	configs := []namedConfig{
		{"Soft", admitAll},
		{"AdmitTemporal", admitTemporal},
		{"BB 4-way", bb4way},
		{"Phys=16", phys16},
		{"NoCoherence", noCoherence},
		{"VariableVL", core.SoftVariable()},
		{"WriteThrough", core.WithWritePolicy(core.Soft(), cache.WriteThroughAllocate)},
		{"LRU", lru2},
		{"FIFO", fifo2},
		{"Random", rand2},
	}
	names := workloads.Benchmarks()
	results, err := ctx.simulateCells(names, configsOf(configs))
	if err != nil {
		return nil, err
	}
	tbl := cellTable("AMAT (cycles)", names, configs, results, []int{0, 1, 2, 3, 4, 5, 6}, amat)
	r.Tables = append(r.Tables, tbl)

	// Traffic comparison for the coherence ablation.
	trafficTbl := cellTable("Words fetched per reference", names, configs, results, []int{0, 4},
		func(res core.Result) float64 { return res.Stats.WordsPerReference() })
	r.Tables = append(r.Tables, trafficTbl)

	gAll, gTemp := columnGeomean(tbl, 0), columnGeomean(tbl, 1)
	r.check("admitting every victim is at least as good as temporal-only admission",
		gAll <= gTemp*1.02, fmt.Sprintf("geomean %.3f vs %.3f", gAll, gTemp))

	g4 := columnGeomean(tbl, 2)
	r.check("a 4-way bounce-back cache performs reasonably well",
		g4 < 1.05*gAll, fmt.Sprintf("geomean %.3f vs %.3f", g4, gAll))

	g16 := columnGeomean(tbl, 3)
	r.check("16-byte physical lines perform similarly under Soft",
		g16 < 1.25*gAll && g16 > 0.75*gAll, fmt.Sprintf("geomean %.3f vs %.3f", g16, gAll))

	gCohT, gNoCohT := columnGeomean(trafficTbl, 0), columnGeomean(trafficTbl, 1)
	r.check("the coherence checks reduce memory traffic",
		gCohT <= gNoCohT, fmt.Sprintf("geomean words/ref %.3f vs %.3f", gCohT, gNoCohT))

	gVar := columnGeomean(tbl, 5)
	r.check("variable-length virtual lines (§3.2 extension) improve on the fixed 64B line",
		gVar <= gAll*1.01, fmt.Sprintf("geomean %.3f vs %.3f", gVar, gAll))

	gWT := columnGeomean(tbl, 6)
	r.check("write-back (the paper's choice) is at least as good as write-through",
		gAll <= gWT*1.02, fmt.Sprintf("geomean %.3f vs %.3f", gAll, gWT))

	replTbl := cellTable("2-way replacement policies (AMAT)", names, configs, results, []int{7, 8, 9}, amat)
	r.Tables = append(r.Tables, replTbl)
	gLRU, gFIFO, gRand := columnGeomean(replTbl, 0), columnGeomean(replTbl, 1), columnGeomean(replTbl, 2)
	r.check("LRU is competitive with FIFO and Random on the 2-way cache",
		gLRU <= gFIFO*1.03 && gLRU <= gRand*1.03,
		fmt.Sprintf("geomean lru %.3f fifo %.3f random %.3f", gLRU, gFIFO, gRand))
	return r, nil
}
