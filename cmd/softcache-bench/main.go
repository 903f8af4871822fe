// softcache-bench regenerates the paper's figures.
//
// Usage:
//
//	softcache-bench -all                   # every figure, paper scale
//	softcache-bench -fig 6a -fig 7b        # selected figures
//	softcache-bench -all -scale test       # quick pass at test scale
//	softcache-bench -list                  # list figure ids
//
// Each figure prints its table(s) — same rows and series as the paper's
// plot — followed by the qualitative shape checks. The simulations inside
// a figure already use every core: the rows of all figures in flight
// share one process-wide budget of GOMAXPROCS workers. Figures run on the
// experiment harness (internal/harness): GOMAXPROCS of them in flight
// (set GOMAXPROCS=1 for one core), each bounded by -timeout, with panics
// converted into structured failed-run records on stderr. Reports are
// printed in paper order regardless of worker count, so the output is
// byte-identical (elapsed times aside) whatever GOMAXPROCS is.
//
// The process exits 0 on success, 1 when any figure fails, panics, times
// out or has failing shape checks, and 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"time"

	"softcache/internal/bench"
	"softcache/internal/cli"
	"softcache/internal/harness"
	"softcache/internal/workloads"
)

const tool = "softcache-bench"

type figList []string

func (f *figList) String() string { return fmt.Sprint([]string(*f)) }
func (f *figList) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool; split from main for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var figs figList
	fs.Var(&figs, "fig", "figure id to run (repeatable); see -list")
	all := fs.Bool("all", false, "run every figure")
	list := fs.Bool("list", false, "list figure ids and exit")
	scaleName := fs.String("scale", "paper", "workload scale: paper or test")
	seed := fs.Uint64("seed", 1, "trace generation seed")
	bars := fs.Bool("bars", false, "also render ASCII bar charts")
	mdPath := fs.String("md", "", "also write a Markdown report (EXPERIMENTS.md format) to this file")
	csvDir := fs.String("csv", "", "also write one CSV per figure table into this directory")
	htmlPath := fs.String("html", "", "also write an HTML report with SVG charts to this file")
	timeout := fs.Duration("timeout", 0, "per-figure timeout (0 = none)")
	check := fs.Bool("check", false, "enable runtime invariant checking in every simulation (slower)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}

	if *list {
		for _, id := range bench.IDs() {
			e, _ := bench.Get(id)
			fmt.Fprintf(stdout, "%-10s %s\n", id, e.Title)
		}
		return cli.ExitOK
	}

	scale, err := workloads.ParseScale(*scaleName)
	if err != nil {
		return cli.Exit(stderr, tool, cli.Usage(err))
	}

	ids := []string(figs)
	if *all {
		ids = bench.IDs()
	}
	if len(ids) == 0 {
		return cli.Exit(stderr, tool, cli.UsageErrorf("nothing to run; use -all, -fig <id> or -list"))
	}

	bctx := bench.NewContext(scale, *seed)
	bctx.Check = *check
	units := make([]harness.Unit[*bench.Report], 0, len(ids))
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		e, err := bench.Get(id)
		if err != nil {
			return cli.Exit(stderr, tool, cli.Usage(err))
		}
		if seen[id] {
			return cli.Exit(stderr, tool, cli.UsageErrorf("figure %s selected more than once", id))
		}
		seen[id] = true
		id := id
		units = append(units, harness.Unit[*bench.Report]{
			Key: "fig:" + id,
			Meta: map[string]string{
				"figure": id,
				"scale":  *scaleName,
				"seed":   fmt.Sprint(*seed),
			},
			Run: func(runCtx context.Context) (*bench.Report, error) {
				return e.Run(bctx.WithContext(runCtx))
			},
		})
	}

	// Ctrl-C cancels in-flight figures; the harness reports them as
	// canceled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	globalStart := time.Now()
	results := harness.Run(ctx, units, harness.Options{
		Workers: runtime.GOMAXPROCS(0),
		Timeout: *timeout,
		Log:     stderr,
	})

	failedChecks := 0
	var reports []*bench.Report
	for _, r := range results {
		if !r.OK() {
			continue // failed-run record already on stderr via Options.Log
		}
		report := r.Value
		reports = append(reports, report)
		if *csvDir != "" {
			files, err := bench.WriteCSV(*csvDir, report)
			if err != nil {
				return cli.Exit(stderr, tool, err)
			}
			for _, f := range files {
				fmt.Fprintf(stdout, "wrote %s\n", f)
			}
		}
		report.Fprint(stdout)
		if *bars {
			for _, t := range report.Tables {
				t.FprintBars(stdout, 50)
			}
		}
		fmt.Fprintf(stdout, "(elapsed %v)\n\n", r.Elapsed.Round(time.Millisecond))
		if !report.Passed() {
			failedChecks++
		}
	}

	summary := harness.Summarize(results)
	if *mdPath != "" && summary.Failures() == 0 {
		if err := writeFile(*mdPath, func(f io.Writer) {
			bench.WriteMarkdown(f, reports, *scaleName, time.Since(globalStart))
		}); err != nil {
			return cli.Exit(stderr, tool, err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *mdPath)
	}
	if *htmlPath != "" && summary.Failures() == 0 {
		if err := writeFile(*htmlPath, func(f io.Writer) {
			bench.WriteHTML(f, reports, *scaleName, time.Since(globalStart))
		}); err != nil {
			return cli.Exit(stderr, tool, err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *htmlPath)
	}

	if summary.Failures() > 0 {
		return cli.Exit(stderr, tool, fmt.Errorf("%s", summary))
	}
	if failedChecks > 0 {
		return cli.Exit(stderr, tool, fmt.Errorf("%d figure(s) with failing shape checks", failedChecks))
	}
	return cli.ExitOK
}

func writeFile(path string, render func(io.Writer)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	render(f)
	return f.Close()
}
