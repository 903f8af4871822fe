// Quickstart: build a loop nest, let the analyser tag it, generate the
// trace, and compare the paper's baseline cache against the software-
// assisted design.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"softcache/internal/core"
	"softcache/internal/locality"
	"softcache/internal/loopir"
	"softcache/internal/tracegen"
)

func main() {
	// A dense matrix-vector multiply: the paper's §2.2 motivating loop.
	// A streams (spatial locality only), X is reused on every outer
	// iteration (temporal), Y is accumulated (both).
	const n = 768
	p := loopir.NewProgram("quickstart-mv")
	p.DeclareArray("A", n, n)
	p.DeclareArray("X", n)
	p.DeclareArray("Y", n)
	p.Add(
		loopir.Do("j1", loopir.C(0), loopir.C(n-1),
			loopir.Read("Y", loopir.V("j1")),
			loopir.Do("j2", loopir.C(0), loopir.C(n-1),
				loopir.Read("A", loopir.V("j2"), loopir.V("j1")),
				loopir.Read("X", loopir.V("j2")),
			),
			loopir.Store("Y", loopir.V("j1")),
		),
	)
	if err := p.Finalize(); err != nil {
		log.Fatal(err)
	}

	// The compiler side: §2.3's elementary subscript analysis derives one
	// temporal and one spatial bit per reference site.
	tags, err := locality.Analyze(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(p.StringTagged(map[int]loopir.Tags(tags)))

	// The trace: addresses + tags + issue gaps, deterministic per seed.
	tr, err := tracegen.Generate(p, tracegen.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d references\n\n", tr.Len())

	// The hardware side: same trace, two cache designs, simulated together
	// in one pass.
	names := []string{"Standard (8K direct-mapped, 32B lines)", "Soft (64B virtual lines + 256B bounce-back)"}
	job := core.Job{Configs: []core.Config{core.Standard(), core.Soft()}}
	results, err := core.Run(context.Background(), job, tr.Reader())
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range results {
		fmt.Printf("%-45s AMAT %.3f cycles, miss ratio %.4f, traffic %.3f words/ref\n",
			names[i], res.AMAT(), res.MissRatio(), res.Stats.WordsPerReference())
	}
}
