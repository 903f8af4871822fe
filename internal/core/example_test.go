package core_test

import (
	"context"
	"fmt"

	"softcache/internal/core"
	"softcache/internal/trace"
)

// ExampleRun runs a four-reference hand trace through the paper's
// baseline cache: one cold miss (1 + 20-cycle latency + 2 bus cycles)
// followed by three hits.
func ExampleRun() {
	tr := &trace.Trace{Name: "tiny", Records: []trace.Record{
		{Addr: 0x1000, Size: 8},
		{Addr: 0x1008, Size: 8, Gap: 1},
		{Addr: 0x1010, Size: 8, Gap: 1},
		{Addr: 0x1018, Size: 8, Gap: 1, Write: true},
	}}
	results, err := core.Run(context.Background(), core.Job{Configs: []core.Config{core.Standard()}}, tr.Reader())
	if err != nil {
		panic(err)
	}
	res := results[0]
	fmt.Printf("AMAT %.1f cycles, misses %d/%d\n",
		res.AMAT(), res.Stats.Misses, res.Stats.References)
	// Output: AMAT 6.5 cycles, misses 1/4
}

// ExampleRun_virtualLine shows the spatial hint at work: the same stream
// with the spatial bit set fetches the whole 64-byte virtual line on the
// miss, so the line-crossing reference at 0x1020 also hits. One fused Run
// simulates both designs over a single pass of the trace.
func ExampleRun_virtualLine() {
	records := []trace.Record{
		{Addr: 0x1000, Size: 8, Spatial: true},
		{Addr: 0x1020, Size: 8, Gap: 1, Spatial: true}, // next physical line
	}
	tr := &trace.Trace{Records: records}
	job := core.Job{Configs: []core.Config{core.Standard(), core.Soft()}}
	results, err := core.Run(context.Background(), job, tr.Reader())
	if err != nil {
		panic(err)
	}
	fmt.Printf("standard misses %d, soft misses %d\n", results[0].Stats.Misses, results[1].Stats.Misses)
	// Output: standard misses 2, soft misses 1
}

// ExampleDescribe shows the short identifiers used in reports.
func ExampleDescribe() {
	fmt.Println(core.Describe(core.Standard()))
	fmt.Println(core.Describe(core.Soft()))
	// Output:
	// 8K/32B/1-way
	// 8K/32B/1-way+vl64+bb8
}
