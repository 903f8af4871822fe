// softcache-sim runs one cache configuration over one workload (or a saved
// trace) and prints the full statistics.
//
// Usage:
//
//	softcache-sim -workload MV                      # Soft on paper-scale MV
//	softcache-sim -workload SpMV -config standard   # the baseline cache
//	softcache-sim -workload LIV -config soft -latency 30 -vline 128
//	softcache-sim -trace mv.trace -config victim    # from a saved trace
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
	"softcache/internal/lang"
	"softcache/internal/metrics"
	"softcache/internal/trace"
	"softcache/internal/tracegen"
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
	stream := flag.Bool("stream", false, "stream -trace through the simulator in O(batch) memory (no materialising)")
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

	if *stream {
		return runStream(stdout, stderr, cfg, *traceFile, *warmup, *stripT, *stripS)
	}

	t, err := loadTrace(*workload, *source, *traceFile, *scaleName, *seed)
	if err != nil {
		return cli.Exit(stderr, tool, err)
	}
	if *stripT || *stripS {
		t = t.StripTags(*stripT, *stripS)
	}

	var res core.Result
	if *warmup > 0 {
		res, err = core.SimulateWarm(cfg, t, *warmup)
	} else {
		res, err = core.Simulate(cfg, t)
	}
	if err != nil {
		return cli.Exit(stderr, tool, err)
	}
	metrics.SimulationReport(stdout, t.CountTags(), res)
	return cli.ExitOK
}

// runStream simulates -trace without materialising it: the file (any
// sniffed format, mmapped when binary) feeds the simulator in pooled
// batches, with tags tallied on the way past for the report.
func runStream(stdout, stderr io.Writer, cfg core.Config, traceFile string, warmup int, stripT, stripS bool) int {
	if traceFile == "" {
		return cli.Exit(stderr, tool, cli.UsageErrorf("-stream needs -trace"))
	}
	if warmup > 0 {
		return cli.Exit(stderr, tool, cli.UsageErrorf("-warmup needs the materialised path; drop -stream"))
	}
	if stripT || stripS {
		return cli.Exit(stderr, tool, cli.UsageErrorf("-strip-temporal/-strip-spatial need the materialised path; drop -stream"))
	}
	f, err := trace.OpenFile(traceFile)
	if err != nil {
		return cli.Exit(stderr, tool, err)
	}
	defer f.Close()
	tr := &tagCountingReader{BatchReader: f}
	results, err := core.SimulateMany(context.Background(), []core.Config{cfg}, tr)
	if err != nil {
		return cli.Exit(stderr, tool, err)
	}
	metrics.SimulationReport(stdout, tr.tags, results[0])
	return cli.ExitOK
}

// tagCountingReader tallies tag classes as batches stream past, standing
// in for Trace.CountTags on the non-materialising path.
type tagCountingReader struct {
	trace.BatchReader
	tags trace.TagCounts
}

func (r *tagCountingReader) ReadBatch(dst []trace.Record) (int, error) {
	n, err := r.BatchReader.ReadBatch(dst)
	r.tags.AddRecords(dst[:n])
	return n, err
}

func loadTrace(workload, source, traceFile, scaleName string, seed uint64) (*trace.Trace, error) {
	selected := 0
	for _, s := range []string{workload, source, traceFile} {
		if s != "" {
			selected++
		}
	}
	if selected > 1 {
		return nil, cli.UsageErrorf("-workload, -source and -trace are mutually exclusive")
	}
	switch {
	case source != "":
		data, err := os.ReadFile(source)
		if err != nil {
			return nil, err
		}
		p, err := lang.Parse(string(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", source, err)
		}
		return tracegen.Generate(p, tracegen.Options{Seed: seed})
	case traceFile != "":
		f, err := trace.OpenFile(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadAll(f)
	case workload != "":
		var scale workloads.Scale
		switch scaleName {
		case "paper":
			scale = workloads.ScalePaper
		case "test":
			scale = workloads.ScaleTest
		default:
			return nil, cli.UsageErrorf("unknown scale %q", scaleName)
		}
		return workloads.Trace(workload, scale, seed)
	default:
		return nil, cli.UsageErrorf("need -workload or -trace (or -workloads to list)")
	}
}
