// dsl demonstrates the loop-nest source language: a kernel written as text
// is compiled, tagged by the paper's locality analysis, traced and
// simulated — the same workflow the paper used with Sage++ on Fortran.
//
//	go run ./examples/dsl
package main

import (
	"context"
	_ "embed"
	"fmt"
	"log"

	"softcache/internal/core"
	"softcache/internal/lang"
	"softcache/internal/locality"
	"softcache/internal/loopir"
	"softcache/internal/tracegen"
)

//go:embed stencil.loop
var source string

func main() {
	p, err := lang.Parse(source)
	if err != nil {
		log.Fatal(err)
	}
	tags, err := locality.Analyze(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Compiled and tagged loop nest:")
	fmt.Println(p.StringTagged(map[int]loopir.Tags(tags)))

	tr, err := tracegen.Generate(p, tracegen.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d references\n\n", tr.Len())

	labels := []string{"Standard", "Soft", "Soft + variable virtual lines"}
	job := core.Job{Configs: []core.Config{core.Standard(), core.Soft(), core.SoftVariable()}}
	results, err := core.Run(context.Background(), job, tr.Reader())
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range results {
		fmt.Printf("%-32s AMAT %.3f cycles, miss ratio %.4f\n", labels[i], res.AMAT(), res.MissRatio())
	}
}
