// softcache-perf runs the kernel performance-regression suite: pinned
// rows, each the ns/record of one pass over one trace, across three layers
// (kernel: one single-config pass per config; fused: one core.Run
// pass for a whole config set; decode: one flat SCTR or compressed SCTZ
// streaming drain). It writes the machine-readable JSON report and a
// markdown report with the derived fused speedups and codec ratios.
//
// Usage:
//
//	softcache-perf                    # all rows -> BENCH_kernel.json
//	softcache-perf -quick -out q.json # test-scale rows only
//	softcache-perf -md report.md      # write the markdown report to a file
//
// The markdown report goes to stdout unless -md names a file. A run that
// measured the paper-scale decode rows is held to the corpus-weighted
// "sctz at or below flat" budget (perf.CodecBudget); a -quick run has no
// such rows and says so. Two revisions are compared by running each one's
// own softcache-perf in alternating pairs: softcache-benchpair -workload
// perf (make bench-pair WORKLOAD=perf).
//
// The process exits 0 on success, 1 when a row fails or the codec budget
// is exceeded, and 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"softcache/internal/cli"
	"softcache/internal/perf"
)

const tool = "softcache-perf"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	quick := fs.Bool("quick", false, "run only the test-scale rows")
	out := fs.String("out", "BENCH_kernel.json", "write the JSON report here")
	md := fs.String("md", "", "write the markdown report to this file (default: stdout)")
	minTime := fs.Duration("min-time", 0, "minimum measurement time per row (default 300ms, 100ms with -quick)")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return cli.ExitUsage
	}
	if fs.NArg() > 0 {
		return cli.Exit(stderr, tool, cli.UsageErrorf("unexpected arguments: %v", fs.Args()))
	}
	return cli.Exit(stderr, tool, runPerf(*quick, *out, *md, *minTime, stdout, stderr))
}

func runPerf(quick bool, out, md string, minTime time.Duration, stdout, stderr io.Writer) error {
	runner := perf.Runner{MinTime: minTime, Log: stderr}
	if quick && minTime == 0 {
		runner.MinTime = 100 * time.Millisecond
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	report, err := runner.Run(ctx, perf.Rows(quick))
	if err != nil {
		return err
	}
	report.Quick = quick
	if err := perf.WriteJSON(out, report); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%s: wrote %s (%d rows)\n", tool, out, len(report.Rows))

	rendered := perf.Markdown(report)
	if md != "" {
		if err := os.WriteFile(md, []byte(rendered), 0o644); err != nil {
			return err
		}
	} else {
		fmt.Fprint(stdout, rendered)
	}

	checked, err := perf.CodecBudget(report)
	if !checked {
		fmt.Fprintf(stderr, "%s: codec budget not checked: no paper-scale flat/sctz decode rows in this run\n", tool)
	}
	return err
}
