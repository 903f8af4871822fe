// softcache-sim runs one cache configuration over one workload (or a saved
// trace, or a loop-nest source) and prints the full statistics. Every
// source streams through the simulator one batch at a time and is never
// held in memory whole: a saved trace (flat, SCTZ or din) is read, and a
// workload or source program generated, as it is simulated. -warmup and
// -strip-* work with every source.
//
// Usage:
//
//	softcache-sim -workload MV                      # Soft on paper-scale MV
//	softcache-sim -workload SpMV -config standard   # the baseline cache
//	softcache-sim -workload LIV -config soft -latency 30 -vline 128
//	softcache-sim -trace mv.trace -config victim    # from a saved trace
//	softcache-sim -trace mv.sctz -warmup 100000     # steady state only
//	softcache-sim -source kernel.loop -config soft  # from loop-nest source
//	softcache-sim -workloads                        # list workloads
//
// Configurations: standard, victim, soft, soft-temporal, soft-spatial,
// soft-variable, bypass, bypass-buffer, simplified-2way, soft-prefetch,
// standard-prefetch, stream-buffers, column-assoc, subblock.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"softcache/internal/cli"
	"softcache/internal/core"
	"softcache/internal/metrics"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

const tool = "softcache-sim"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool with the given arguments, writing to the supplied
// streams, and returns the process exit code. Split from main for testing.
func run(args []string, stdout, stderr io.Writer) int {
	flag := flag.NewFlagSet(tool, flag.ContinueOnError)
	flag.SetOutput(stderr)
	workload := flag.String("workload", "", "workload name (see -workloads)")
	source := flag.String("source", "", "loop-nest source file to compile, trace and simulate")
	traceFile := flag.String("trace", "", "binary trace file to simulate instead of a workload")
	configName := flag.String("config", "soft", "configuration name")
	scaleName := flag.String("scale", "paper", "workload scale: paper or test")
	seed := flag.Uint64("seed", 1, "trace generation seed")
	latency := flag.Int("latency", 0, "override memory latency (cycles)")
	vline := flag.Int("vline", -1, "override virtual line size (bytes; 0 disables)")
	cacheKB := flag.Int("cache", 0, "override cache size (KiB)")
	lineSize := flag.Int("line", 0, "override physical line size (bytes)")
	assoc := flag.Int("assoc", 0, "override associativity")
	stripT := flag.Bool("strip-temporal", false, "clear temporal tags in the trace")
	stripS := flag.Bool("strip-spatial", false, "clear spatial tags in the trace")
	warmup := flag.Int("warmup", 0, "exclude the first N references from the statistics (steady state)")
	listW := flag.Bool("workloads", false, "list workloads and exit")
	if err := flag.Parse(args); err != nil {
		return cli.ExitUsage
	}

	if *listW {
		for _, n := range workloads.Names() {
			d, _ := workloads.Get(n)
			fmt.Fprintf(stdout, "%-12s %s\n", n, d.Description)
		}
		return 0
	}

	cfg, err := core.ConfigByName(*configName)
	if err != nil {
		return cli.Exit(stderr, tool, cli.Usage(err))
	}
	if *latency > 0 {
		cfg = core.WithLatency(cfg, *latency)
	}
	if *vline >= 0 {
		cfg.VirtualLineSize = *vline
	}
	if *cacheKB > 0 {
		cfg.CacheSize = *cacheKB << 10
	}
	if *lineSize > 0 {
		cfg.LineSize = *lineSize
	}
	if *assoc > 0 {
		cfg.Assoc = *assoc
	}

	if *warmup < 0 {
		return cli.Exit(stderr, tool, cli.UsageErrorf("-warmup %d is negative", *warmup))
	}

	src, err := cli.OpenSource(*workload, *source, *traceFile, *scaleName, *seed)
	if err != nil {
		return cli.Exit(stderr, tool, err)
	}
	defer src.Close()
	tr := &tagReader{BatchReader: src, stripT: *stripT, stripS: *stripS}
	results, err := core.Run(context.Background(), core.Job{Configs: []core.Config{cfg}, Warmup: *warmup}, tr)
	if err != nil {
		return cli.Exit(stderr, tool, err)
	}
	metrics.SimulationReport(stdout, tr.tags, results[0])
	return cli.ExitOK
}

// tagReader clears the tags -strip-temporal and -strip-spatial ask for
// (as Trace.StripTags does), then tallies the tag classes of every record
// streaming past for the report.
type tagReader struct {
	trace.BatchReader
	stripT, stripS bool
	tags           trace.TagCounts
}

func (r *tagReader) ReadBatch(dst []trace.Record) (int, error) {
	n, err := r.BatchReader.ReadBatch(dst)
	recs := dst[:n]
	if r.stripT || r.stripS {
		for i := range recs {
			recs[i].Temporal = recs[i].Temporal && !r.stripT
			recs[i].Spatial = recs[i].Spatial && !r.stripS
		}
	}
	r.tags.AddRecords(recs)
	return n, err
}
