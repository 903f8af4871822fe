// softcache-perf runs the kernel performance-regression suite: pinned
// rows, each the ns/record of one pass over one trace, across three layers
// (kernel: one single-config pass per config; fused: one core.Run
// pass for a whole config set; decode: one flat SCTR or compressed SCTZ
// streaming drain). It writes the machine-readable BENCH_kernel.json
// artifact and a markdown delta report with the derived fused speedups and
// codec ratios and, when a baseline is given, gates every row's ns/record
// against it, plus a corpus-weighted "sctz at or below flat" budget that
// holds the run to itself.
//
// Usage:
//
//	softcache-perf                          # all rows -> BENCH_kernel.json
//	softcache-perf -quick                   # test-scale rows only (CI smoke)
//	softcache-perf -baseline BENCH_kernel.json -out /tmp/now.json
//	softcache-perf -quick -max-regress 0.15 # fail >15% ns/record regressions
//	softcache-perf -md report.md            # write the delta report to a file
//
// With no -baseline, an existing -out file from a previous run is used as
// the baseline before being overwritten. The delta report goes to stdout
// unless -md names a file.
//
// The process exits 0 on success, 1 when a row fails or the regression
// gate trips, and 2 on usage errors.
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
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run only the test-scale rows (CI smoke)")
	out := fs.String("out", "BENCH_kernel.json", "write the JSON report here")
	baseline := fs.String("baseline", "", "compare against this previous JSON report (default: the pre-existing -out file)")
	maxRegress := fs.Float64("max-regress", 0, "fail when any row's ns/record regresses by more than this fraction vs the baseline (0 disables)")
	md := fs.String("md", "", "write the markdown delta report to this file (default: stdout)")
	minTime := fs.Duration("min-time", 0, "minimum measurement time per row (default 300ms, 100ms with -quick)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if fs.NArg() > 0 {
		return cli.Exit(stderr, tool, cli.UsageErrorf("unexpected arguments: %v", fs.Args()))
	}
	return cli.Exit(stderr, tool, runPerf(*quick, *out, *baseline, *maxRegress, *md, *minTime, stdout, stderr))
}

func runPerf(quick bool, out, baseline string, maxRegress float64, md string, minTime time.Duration, stdout, stderr io.Writer) error {
	if maxRegress < 0 {
		return cli.UsageErrorf("-max-regress must be >= 0, got %g", maxRegress)
	}

	// Load the baseline before the run (and before -out is overwritten).
	basePath := baseline
	if basePath == "" {
		if _, err := os.Stat(out); err == nil {
			basePath = out
		}
	}
	var base *perf.Report
	if basePath != "" {
		var err error
		base, err = perf.ReadJSON(basePath)
		if err != nil {
			if baseline != "" {
				return err // an explicit baseline must parse
			}
			fmt.Fprintf(stderr, "%s: ignoring unreadable previous report %s: %v\n", tool, basePath, err)
		}
	}
	if baseline != "" && base == nil {
		return fmt.Errorf("baseline %s not loaded", baseline)
	}

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

	rendered := perf.Markdown(base, report)
	if md != "" {
		if err := os.WriteFile(md, []byte(rendered), 0o644); err != nil {
			return err
		}
	} else {
		fmt.Fprint(stdout, rendered)
	}

	if base != nil && maxRegress > 0 {
		if err := perf.Gate(base, report, maxRegress); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "%s: regression gate passed (budget %.0f%%)\n", tool, maxRegress*100)
	}
	return nil
}
