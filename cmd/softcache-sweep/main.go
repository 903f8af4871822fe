// softcache-sweep explores the design space beyond the paper's figures: it
// sweeps one or two configuration parameters over a workload and prints a
// CSV matrix of the chosen metric.
//
// Usage:
//
//	softcache-sweep -workload MV -x latency=5,10,20,30
//	softcache-sweep -workload SpMV -config soft \
//	    -x cache=4,8,16,32 -y vline=0,64,128,256 -metric miss
//	softcache-sweep -source kernel.loop -x line=16,32,64 -metric traffic
//	softcache-sweep -workload MV -x cache=4,8 -journal j.jsonl -resume
//
// Axes: cache (KiB), line (bytes), vline (bytes; 0 disables), latency
// (cycles), assoc (ways), bb (bounce-back lines), sbuf (stream buffers).
// Metrics: amat, miss, traffic.
//
// The x axis is fused: each matrix row is one unit that simulates all of
// its configurations in a single pass over the trace (core.Run),
// so the trace is decoded once per row instead of once per cell. Rows run
// on the experiment harness (internal/harness): in parallel on GOMAXPROCS
// workers (set GOMAXPROCS=1 for one core), each bounded by -timeout, with
// panics converted into structured failed-run records on stderr and
// completed rows checkpointed to -journal so an interrupted sweep resumes
// with -resume. A row's journal key names its label and a digest of the
// trace, the metric, the kernel version and the row's resolved configs,
// so a journaled row replays only for the same computation: changing the
// workload, seed, base config, either axis, the metric or -check re-runs
// it. The matrix is printed in row-major order regardless of worker count.
//
// The process exits 0 on success, 1 when any cell fails, and 2 on usage
// errors (bad axes, unknown metric or config).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"

	"softcache/internal/cli"
	"softcache/internal/core"
	"softcache/internal/harness"
	"softcache/internal/lang"
	"softcache/internal/trace"
	"softcache/internal/tracegen"
	"softcache/internal/workloads"
)

const tool = "softcache-sweep"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name")
	source := fs.String("source", "", "loop-nest source file")
	traceFile := fs.String("trace", "", "saved trace file to sweep (any format: flat, sctz, din, din.gz)")
	configName := fs.String("config", "soft", "base configuration (as in softcache-sim)")
	scaleName := fs.String("scale", "paper", "workload scale: paper or test")
	seed := fs.Uint64("seed", 1, "trace generation seed")
	xSpec := fs.String("x", "", "swept axis: key=v1,v2,... (columns)")
	ySpec := fs.String("y", "", "optional second axis (rows)")
	metric := fs.String("metric", "amat", "metric: amat, miss or traffic")
	timeout := fs.Duration("timeout", 0, "per-row timeout (0 = none)")
	journal := fs.String("journal", "", "append completed rows to this JSONL checkpoint file")
	resume := fs.Bool("resume", false, "replay rows already completed in -journal instead of re-running them")
	check := fs.Bool("check", false, "enable runtime invariant checking in every simulation (slower)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if *xSpec == "" {
		return cli.Exit(stderr, tool, cli.UsageErrorf("-x is required"))
	}

	xAxis, err := core.ParseAxis(*xSpec)
	if err != nil {
		return cli.Exit(stderr, tool, cli.Usage(err))
	}
	var yAxis core.Axis
	if *ySpec != "" {
		yAxis, err = core.ParseAxis(*ySpec)
		if err != nil {
			return cli.Exit(stderr, tool, cli.Usage(err))
		}
		if yAxis.Key == xAxis.Key {
			return cli.Exit(stderr, tool, cli.UsageErrorf("-x and -y sweep the same axis %q", xAxis.Key))
		}
	}
	if _, err := core.MetricOf(*metric, core.Result{}); err != nil {
		return cli.Exit(stderr, tool, cli.Usage(err))
	}

	base, err := core.ConfigByName(*configName)
	if err != nil {
		return cli.Exit(stderr, tool, cli.Usage(err))
	}
	if *check {
		base = core.WithRuntimeChecks(base, true)
	}
	t, err := loadTrace(*workload, *source, *traceFile, *scaleName, *seed)
	if err != nil {
		return cli.Exit(stderr, tool, err)
	}

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

	// One fused unit per matrix row: the x axis becomes a config group
	// simulated in a single trace pass (core.Run), so the trace is walked
	// once per row instead of once per cell. Rows run in parallel and the
	// journal records one entry per row.
	grid, err := core.Grid(base, xAxis, yAxis)
	if err != nil {
		return cli.Exit(stderr, tool, cli.Usage(err))
	}
	fingerprint := fmt.Sprintf("%016x", t.Fingerprint())
	xLabels := make([]string, len(xAxis.Values))
	for i, x := range xAxis.Values {
		xLabels[i] = fmt.Sprintf("%s=%d", xAxis.Key, x)
	}
	units := make([]harness.Unit[[]float64], len(grid))
	for i, cfgs := range grid {
		label := xAxis.Key
		meta := map[string]string{
			"config": *configName,
			"metric": *metric,
			"seed":   fmt.Sprint(*seed),
			"trace":  fingerprint,
			"x":      strings.Join(xLabels, " "),
		}
		if yAxis.Key != "" {
			label = fmt.Sprintf("%s=%d,%s", yAxis.Key, yAxis.Values[i], xAxis.Key)
			meta[yAxis.Key] = fmt.Sprint(yAxis.Values[i])
		}
		digest, err := rowDigest(fingerprint, *metric, cfgs)
		if err != nil {
			return cli.Exit(stderr, tool, err)
		}
		units[i] = harness.Unit[[]float64]{
			Key:  "row:" + label + "/" + digest,
			Meta: meta,
			Run: func(runCtx context.Context) ([]float64, error) {
				results, err := core.Run(runCtx, core.Job{Configs: cfgs}, t.Reader())
				if err != nil {
					return nil, err
				}
				row := make([]float64, len(cfgs))
				for i, res := range results {
					if row[i], err = core.MetricOf(*metric, res); err != nil {
						return nil, err
					}
				}
				return row, nil
			},
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	results, err := harness.Run(ctx, units, opts)
	if err != nil {
		return cli.Exit(stderr, tool, err)
	}
	for i := range results {
		// A journal is outside input: a replayed row of the wrong width
		// (a hand-edited line) fails instead of misprinting the matrix.
		if r := &results[i]; r.OK() && len(r.Value) != len(xAxis.Values) {
			r.Status, r.Err = harness.StatusFailed, fmt.Errorf("journaled row %s has %d values, want %d", r.Key, len(r.Value), len(xAxis.Values))
			fmt.Fprintln(stderr, r.FailureRecord())
		}
	}

	// Header row.
	head := make([]string, 0, len(xAxis.Values)+1)
	if yAxis.Key == "" {
		head = append(head, xAxis.Key)
	} else {
		head = append(head, yAxis.Key+`\`+xAxis.Key)
	}
	for _, x := range xAxis.Values {
		head = append(head, strconv.Itoa(x))
	}
	fmt.Fprintln(stdout, strings.Join(head, ","))

	for i, r := range results {
		row := make([]string, 0, len(xAxis.Values)+1)
		if yAxis.Key == "" {
			row = append(row, *metric)
		} else {
			row = append(row, strconv.Itoa(yAxis.Values[i]))
		}
		for j := range xAxis.Values {
			if r.OK() {
				row = append(row, strconv.FormatFloat(r.Value[j], 'f', 4, 64))
			} else {
				row = append(row, "error")
			}
		}
		fmt.Fprintln(stdout, strings.Join(row, ","))
	}

	if s := harness.Summarize(results); s.Failures() > 0 {
		return cli.Exit(stderr, tool, fmt.Errorf("%s", s))
	}
	return cli.ExitOK
}

// rowDigest identifies everything a row's values depend on beyond its
// label: the trace, the metric, the kernel generation and the row's
// resolved configs (base config, y value, every x value, -check).
func rowDigest(fingerprint, metric string, cfgs []core.Config) (string, error) {
	canon, err := json.Marshal(cfgs)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00", fingerprint, metric, core.KernelVersion)
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

func loadTrace(workload, source, traceFile, scaleName string, seed uint64) (*trace.Trace, error) {
	selected := 0
	for _, s := range []string{workload, source, traceFile} {
		if s != "" {
			selected++
		}
	}
	switch {
	case selected > 1:
		return nil, cli.UsageErrorf("-workload, -source and -trace are mutually exclusive")
	case traceFile != "":
		// A sweep walks the trace once per matrix row, so it materialises
		// the records rather than re-decoding the file for every row.
		f, err := trace.OpenFile(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadAll(f)
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
		return nil, cli.UsageErrorf("need -workload, -source or -trace")
	}
}
