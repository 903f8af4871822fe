// softcache-bench regenerates the paper's figures.
//
// Usage:
//
//	softcache-bench -all                   # every figure, paper scale
//	softcache-bench -fig 6a -fig 7b        # selected figures
//	softcache-bench -all -scale test       # quick pass at test scale
//	softcache-bench -all -journal run.jsonl -resume   # checkpoint/resume
//	softcache-bench -faults                # fault-injection corpus
//	softcache-bench -list                  # list figure ids
//
// Each figure prints its table(s) — same rows and series as the paper's
// plot — followed by the qualitative shape checks. The simulations inside
// a figure already use every core: the rows of all figures in flight
// share one process-wide budget of GOMAXPROCS workers. Figures run on the
// experiment harness (internal/harness): GOMAXPROCS of them in flight
// (set GOMAXPROCS=1 for one core), each bounded by -timeout, with panics
// converted into structured failed-run records on stderr and completed
// figures checkpointed to -journal so an interrupted run resumes with
// -resume instead of recomputing. A figure's journal key names the
// figure, scale, seed and kernel version, so a journal written by
// another kernel generation re-runs rather than replaying stale tables.
// Reports are printed in paper order regardless of worker count, so the
// output is byte-identical (elapsed times aside) whatever GOMAXPROCS is.
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
	"softcache/internal/core"
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
	journal := fs.String("journal", "", "append completed figures to this JSONL checkpoint file")
	resume := fs.Bool("resume", false, "replay figures already completed in -journal instead of re-running them")
	check := fs.Bool("check", false, "enable runtime invariant checking in every simulation (slower)")
	faults := fs.Bool("faults", false, "run the fault-injection corpus through the pipeline instead of figures")
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

	// Ctrl-C cancels in-flight figures; the harness journals what finished
	// and reports the rest as canceled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := harness.Options{
		Workers:     runtime.GOMAXPROCS(0),
		Timeout:     *timeout,
		JournalPath: *journal,
		Resume:      *resume,
		Log:         stderr,
	}
	if opts.Resume && opts.JournalPath == "" {
		return cli.Exit(stderr, tool, cli.UsageErrorf("-resume requires -journal"))
	}

	if *faults {
		return cli.Exit(stderr, tool, runFaults(ctx, stdout, *seed, opts))
	}

	var scale workloads.Scale
	switch *scaleName {
	case "paper":
		scale = workloads.ScalePaper
	case "test":
		scale = workloads.ScaleTest
	default:
		return cli.Exit(stderr, tool, cli.UsageErrorf("unknown scale %q (want paper or test)", *scaleName))
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
			Key: fmt.Sprintf("fig:%s/scale=%s/seed=%d/kernel=%s", id, *scaleName, *seed, core.KernelVersion),
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

	globalStart := time.Now()
	results, err := harness.Run(ctx, units, opts)
	if err != nil {
		return cli.Exit(stderr, tool, err)
	}

	failedChecks := 0
	var reports []*bench.Report
	for _, r := range results {
		if !r.OK() {
			continue // failed-run record already on stderr via opts.Log
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
		if r.Status == harness.StatusResumed {
			fmt.Fprintf(stdout, "(resumed)\n\n")
		} else {
			fmt.Fprintf(stdout, "(elapsed %v)\n\n", r.Elapsed.Round(time.Millisecond))
		}
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

// runFaults derives the fault-injection corpus from a healthy test-scale
// trace and pushes every case through the trace→simulate pipeline under
// three base configurations, proving each layer errors instead of
// panicking.
func runFaults(ctx context.Context, stdout io.Writer, seed uint64, opts harness.Options) error {
	t, err := workloads.Trace("MV", workloads.ScaleTest, seed)
	if err != nil {
		return err
	}
	corpus, err := harness.Corpus(t)
	if err != nil {
		return err
	}
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"standard", core.Standard()},
		{"soft", core.Soft()},
		{"soft-variable", core.SoftVariable()},
	}
	failures := 0
	for _, c := range configs {
		copts := opts
		if copts.JournalPath != "" {
			copts.JournalPath = fmt.Sprintf("%s.%s", opts.JournalPath, c.name)
		}
		results, err := harness.RunFaults(ctx, corpus, c.cfg, copts)
		if err != nil {
			return err
		}
		for i, r := range results {
			if !r.OK() || !r.Value.Contained(corpus[i].WantParseError) {
				failures++
				continue
			}
			switch {
			case r.Value.ParseErr != "":
				fmt.Fprintf(stdout, "%-14s %-24s rejected by reader\n", c.name, r.Value.Name)
			case r.Value.SimErr != "":
				fmt.Fprintf(stdout, "%-14s %-24s simulation error (contained)\n", c.name, r.Value.Name)
			default:
				fmt.Fprintf(stdout, "%-14s %-24s simulated %d refs\n", c.name, r.Value.Name, r.Value.References)
			}
		}
	}
	fmt.Fprintf(stdout, "fault corpus: %d cases x %d configs, %d uncontained\n",
		len(corpus), len(configs), failures)
	if failures > 0 {
		return fmt.Errorf("%d fault case(s) not contained", failures)
	}
	return nil
}
