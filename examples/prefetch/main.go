// prefetch walks through §4.4: the bounce-back cache doubling as a
// prefetch buffer, the spatial hint gating hardware prefetch initiation,
// and the software-prefetch extension (explicit PREFETCH instructions
// inserted by the compiler pass, Mowry-style).
//
//	go run ./examples/prefetch
package main

import (
	"context"
	"fmt"
	"log"

	"softcache/internal/core"
	"softcache/internal/locality"
	"softcache/internal/tracegen"
	"softcache/internal/workloads"
)

func main() {
	fmt.Println("Prefetching on the matrix-vector multiply (paper fig. 12 + extension)")
	fmt.Println()

	tr, err := workloads.Trace("MV", workloads.ScalePaper, 1)
	if err != nil {
		log.Fatal(err)
	}

	show := func(label string, res core.Result) {
		fmt.Printf("%-34s AMAT %6.3f  miss %6.4f  traffic %5.3f  pf issued %7d  pf hits %7d\n",
			label, res.AMAT(), res.MissRatio(), res.Stats.WordsPerReference(),
			res.Stats.PrefetchesIssued, res.Stats.PrefetchHits)
	}

	labels := []string{"Standard", "Standard + unguided prefetch", "Soft", "Soft + hint-guided hw prefetch"}
	job := core.Job{Configs: []core.Config{
		core.Standard(),
		core.WithPrefetch(core.Standard(), false),
		core.Soft(),
		core.WithPrefetch(core.Soft(), true),
	}}
	results, err := core.Run(context.Background(), job, tr.Reader())
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range results {
		show(labels[i], res)
	}

	// The software variant: the compiler inserts PREFETCH instructions a
	// few iterations ahead of every qualifying (spatial, streaming)
	// reference. The prefetch distance is the knob: too short and the
	// data is late, too long and the buffer quota evicts it before use.
	fmt.Println()
	fmt.Println("Software prefetching (explicit PREFETCH instructions):")
	for _, d := range []int{1, 2, 4, 8, 16} {
		p, err := workloads.BuildProgram("MV", workloads.ScalePaper)
		if err != nil {
			log.Fatal(err)
		}
		inserted, err := locality.InsertPrefetches(p, d)
		if err != nil {
			log.Fatal(err)
		}
		pf, err := tracegen.NewReader(p, tracegen.Options{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		results, err := core.Run(context.Background(), core.Job{Configs: []core.Config{core.Soft()}}, pf)
		pf.Close()
		if err != nil {
			log.Fatal(err)
		}
		show(fmt.Sprintf("Soft + sw prefetch d=%-2d (%d sites)", d, inserted), results[0])
	}
	fmt.Println()
	fmt.Println("The hint-guided hardware scheme needs no new instructions; the")
	fmt.Println("software scheme buys a little more at a well-chosen distance and")
	fmt.Println("decays gracefully when the distance overruns the buffer quota.")
}
