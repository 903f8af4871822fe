// matvec dissects the paper's §2.2 analysis of the matrix-vector multiply
// loop: why a victim cache cannot recover X's long-distance cyclic reuse,
// and how the bounce-back cache does. It runs the same trace through five
// designs and then watches the fate of one X line across an outer
// iteration.
//
//	go run ./examples/matvec
package main

import (
	"context"
	"fmt"
	"log"

	"softcache/internal/cache"
	"softcache/internal/core"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

func main() {
	tr, err := workloads.Trace("MV", workloads.ScalePaper, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MV: %d references; N chosen so X fits in the 8K cache but each\n", tr.Len())
	fmt.Println("column of A flushes most of it between reuses (cache pollution).")
	fmt.Println()

	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"Standard", core.Standard()},
		{"Standard+Victim", core.Victim()},
		{"Soft temporal only", core.SoftTemporal()},
		{"Soft spatial only", core.SoftSpatial()},
		{"Soft (combined)", core.Soft()},
	}
	var job core.Job
	for _, c := range configs {
		job.Configs = append(job.Configs, c.cfg)
	}
	results, err := core.Run(context.Background(), job, tr.Reader())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-20s %8s %12s %12s %14s\n", "design", "AMAT", "miss ratio", "BB hits", "bounced back")
	for i, res := range results {
		fmt.Printf("%-20s %8.3f %12.4f %12d %14d\n",
			configs[i].name, res.AMAT(), res.MissRatio(), res.Stats.BounceBackHits, res.Stats.BouncedBack)
	}

	// Now follow one line of X through the Soft hierarchy: it is loaded,
	// polluted out of the main cache by A's column, parked in the
	// bounce-back cache, and bounced back instead of discarded because its
	// temporal bit is set.
	fmt.Println("\nLife of one X line under Soft (line containing X[0]):")
	sim, err := core.NewSimulator(core.Soft())
	if err != nil {
		log.Fatal(err)
	}
	var xAddr uint64
	// X's first reference is the first record whose tags are
	// temporal+spatial inside the inner loop; find it by scanning for the
	// second distinct temporal array touched (Y is first).
	seen := map[uint32]bool{}
	for _, r := range tr.Records {
		if r.Temporal && r.Spatial && !seen[r.RefID] {
			seen[r.RefID] = true
			if len(seen) == 3 { // Y-load, A is not temporal, X-load
				xAddr = r.Addr
				break
			}
		}
	}
	if xAddr == 0 {
		// Fall back: X is the third array in the address map.
		xAddr = tr.Records[2].Addr
	}

	lastWhere := cache.LineInfo{Where: cache.LineWhere(-1)}
	transitions := 0
	for i, r := range tr.Records {
		sim.Access(r)
		info := sim.Inspect(xAddr)
		if info.Where != lastWhere.Where && transitions < 12 {
			fmt.Printf("  after ref %8d: %-12s (temporal bit %v)\n", i, info.Where, info.Temporal)
			lastWhere = info
			transitions++
		}
		if transitions >= 12 {
			break
		}
	}
	stats := sim.Stats()
	fmt.Printf("\n(partial run) bounce-backs so far: %d, swaps: %d\n", stats.BouncedBack, stats.Swaps)
	printTagLegend(tr)
}

func printTagLegend(tr *trace.Trace) {
	c := tr.CountTags()
	fmt.Printf("\ntrace tag mix: none=%d spatial=%d temporal=%d both=%d\n",
		c.None, c.SpatialOnly, c.TemporalOnly, c.Both)
}
