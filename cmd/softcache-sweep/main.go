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
//
// Axes, with the inclusive ranges of core's override table (the daemon's
// /v1/sweep accepts the same): cache 1-65536 (KiB), line 1-4096 (bytes),
// vline 0-65536 (bytes; 0 disables), latency 0-1048576 (cycles), assoc
// 1-1024 (ways), bb 0-1024 (bounce-back lines), sbuf 0-64 (stream
// buffers). A value out of range is a usage error. Metrics: amat, miss,
// traffic.
//
// The x axis is fused: each matrix row is one unit that simulates all of
// its configurations in a single pass over the trace (core.Run),
// so the trace is decoded once per row instead of once per cell. Rows run
// on the experiment harness (internal/harness): in parallel on GOMAXPROCS
// workers (set GOMAXPROCS=1 for one core), each bounded by -timeout, with
// panics converted into structured failed-run records on stderr. The
// matrix is printed in row-major order regardless of worker count.
//
// The process exits 0 on success, 1 when any cell fails, and 2 on usage
// errors (bad axes, a cell whose config Validate rejects, unknown metric
// or config).
package main

import (
	"context"
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
	"softcache/internal/trace"
)

const tool = "softcache-sweep"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	source := fs.String("source", "", "loop-nest source file")
	traceFile := fs.String("trace", "", "saved trace file to sweep (any format: flat, sctz, din, din.gz)")
	configName := fs.String("config", "soft", "base configuration (as in softcache-sim)")
	scaleName := fs.String("scale", "paper", "workload scale: paper or test")
	seed := fs.Uint64("seed", 1, "trace generation seed")
	xSpec := fs.String("x", "", "swept axis: key=v1,v2,... (columns); keys and ranges: cache 1-65536 KiB, line 1-4096, vline 0-65536, latency 0-1048576, assoc 1-1024, bb 0-1024, sbuf 0-64")
	ySpec := fs.String("y", "", "optional second axis (rows)")
	metric := fs.String("metric", "amat", "metric: amat, miss or traffic")
	timeout := fs.Duration("timeout", 0, "per-row timeout (0 = none)")
	check := fs.Bool("check", false, "enable runtime invariant checking in every simulation (slower)")
	if err := cli.Parse(fs, args, stderr); err != nil {
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

	// Every cell is checked before the trace is loaded or anything runs.
	grid, err := core.Grid(base, xAxis, yAxis)
	if err != nil {
		return cli.Exit(stderr, tool, cli.Usage(err))
	}
	for _, row := range grid {
		for _, cfg := range row {
			if err := cfg.Validate(); err != nil {
				return cli.Exit(stderr, tool, cli.Usage(err))
			}
		}
	}
	t, err := loadTrace(*workload, *source, *traceFile, *scaleName, *seed)
	if err != nil {
		return cli.Exit(stderr, tool, err)
	}
	fingerprint := fmt.Sprintf("%016x", t.Fingerprint())
	xLabels := make([]string, len(xAxis.Values))
	for i, x := range xAxis.Values {
		xLabels[i] = fmt.Sprintf("%s=%d", xAxis.Key, x)
	}
	// One fused unit per matrix row: the x axis becomes a config group
	// simulated in a single trace pass (core.Run), so the trace is walked
	// once per row instead of once per cell. Rows run in parallel.
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
		units[i] = harness.Unit[[]float64]{
			Key:  "row:" + label,
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
	results := harness.Run(ctx, units, harness.Options{
		Workers: runtime.GOMAXPROCS(0),
		Timeout: *timeout,
		Log:     stderr,
	})

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

// loadTrace materialises the swept trace: a sweep walks it once per
// matrix row, so it holds the records rather than re-reading the source
// for every row.
func loadTrace(workload, source, traceFile, scaleName string, seed uint64) (*trace.Trace, error) {
	src, err := cli.OpenSource(workload, source, traceFile, scaleName, seed)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return trace.ReadAll(src)
}
