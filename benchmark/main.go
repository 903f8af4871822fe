// Command benchmark measures softcache from the outside, end to end and
// layer by layer: the paper's figure pipeline, and three traffic mixes
// sent to an in-process serving fleet over loopback HTTP. Each workload
// runs in a child process of its own, so its set-up time and peak memory
// are its alone. See README.md for the workloads, the metrics and how to
// read a traced run. From the checkout root:
//
//	sh benchmark/run.sh --workload serve-unique --seed 1 --seconds 20 --trace 0
//	sh benchmark/run.sh --workload all --seed 1
//	sh benchmark/run.sh --workload all --seed 1 --repeat 5
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// childTimeout bounds one workload run, set-up and checks included.
const childTimeout = 175 * time.Second

// options configure one workload run.
type options struct {
	seed    uint64
	seconds float64 // measured time of one window
	traced  bool
	// short is the test suite's smoke run: one set-up, and no floor on
	// how many rounds or passes a window gives.
	short bool
	root  string // checkout root, where the golden figure CSVs live
	out   string // scratch directory: result caches, CSVs, span files
}

func (o options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// setupReps is how many times a run sets up, given how many an untraced
// run needs for a steady setup_s, the median. Traced runs do not report
// setup_s and set up once.
func (o options) setupReps(untraced int) int {
	if o.short || o.traced {
		return 1
	}
	return untraced
}

// replays is how many requests a traced serve run replays unloaded.
func (o options) replays() int {
	if o.short {
		return 8
	}
	return 64
}

// workloadNames lists the workloads in the order -workload all runs them.
func workloadNames() []string {
	names := []string{"figures"}
	for _, m := range mixes {
		names = append(names, m.name)
	}
	return names
}

// runWorkload runs one workload in this process.
func runWorkload(name string, o options) (*report, *tracer, error) {
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	meter, err := newHostMeter()
	if err != nil {
		return nil, nil, err
	}
	defer meter.close()
	var rep *report
	if name == "figures" {
		rep, err = runFigures(o, tr, meter)
	} else {
		i := slices.IndexFunc(mixes, func(m mix) bool { return m.name == name })
		if i < 0 {
			return nil, nil, fmt.Errorf("unknown workload %q", name)
		}
		rep, err = runServe(mixes[i], o, tr, meter)
	}
	if err != nil {
		return nil, nil, err
	}
	rep.notef("host speed: the reference took a median %.3f ms over %d runs (memory half %.3f ms, loopback half %.3f ms; %.0f ms nominal)",
		median(meter.samples), len(meter.samples), median(meter.halves[0]), median(meter.halves[1]), refNominalMS)
	if rep.e2e["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, nil, err
	}
	return rep, tr, nil
}

func spansPath(o options, name string) string {
	return filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.jsonl", name, o.seed))
}

// runChild runs one workload and prints its notes, its metrics by name
// with units, and last the result line. It fails when any output was
// wrong.
func runChild(name string, o options, stdout, stderr io.Writer) int {
	rep, tr, err := runWorkload(name, o)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	if tr != nil {
		path := spansPath(o, name)
		if err := tr.write(path); err != nil {
			fmt.Fprintf(stderr, "benchmark: writing spans: %v\n", err)
			return 1
		}
		rep.notef("spans: %s", path)
		rep.lines = append(rep.lines, tr.selfTimeLines()...)
	}
	res, err := rep.result(o.traced)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	e2e, err := withUnits(rep.e2e, e2eUnits, true)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	kind := "untraced"
	if o.traced {
		kind = "traced"
	}
	fmt.Fprintf(stdout, "workload %s, seed %d, %g s, %s\n", name, o.seed, o.seconds, kind)
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	fmt.Fprintln(stdout, "end-to-end metrics (untraced window):")
	for _, l := range metricLines(e2e) {
		fmt.Fprintln(stdout, l)
	}
	if o.traced {
		fmt.Fprintln(stdout, "per-layer metrics:")
		for _, l := range metricLines(res.Metrics) {
			fmt.Fprintln(stdout, l)
		}
	}
	fmt.Fprintf(stdout, "error_share %g (%d failed of %d attempted)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Fprintln(stdout, res.json())
	if !res.Correct {
		return 1
	}
	return 0
}

// spawn runs one workload in a child process, relaying its output; the
// child's result line is relayed only when printResult is set.
func spawn(name string, o options, stdout, stderr io.Writer, printResult bool) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if o.traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace, "-out", o.out)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, err
	}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 1<<20)
	var last string
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		last = sc.Text()
	}
	werr := cmd.Wait()
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Metrics == nil {
		fmt.Fprintln(stdout, last)
		if werr == nil {
			werr = fmt.Errorf("no result line")
		}
		return res, fmt.Errorf("workload %s: %w", name, werr)
	}
	if printResult {
		fmt.Fprintln(stdout, last)
	}
	if werr != nil && res.Correct {
		return res, fmt.Errorf("workload %s: %w", name, werr)
	}
	return res, nil
}

// calibrate runs every workload n times, each in a fresh child, with the
// seed advancing per round and the workload order reversed every other
// round, then prints each metric's median, quartiles and spread.
func calibrate(names []string, o options, n int, stdout, stderr io.Writer) int {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for r := 0; r < n; r++ {
		order := slices.Clone(names)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		ro := o
		ro.seed = o.seed + uint64(r)
		for _, name := range order {
			res, err := spawn(name, ro, io.Discard, stderr, false)
			if err != nil || !res.Correct {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: wrong or failed (%v)\n", name, ro.seed, err)
				return 1
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			var parts []string
			for k, m := range res.Metrics {
				values[name][k] = append(values[name][k], m.Value)
				units[k] = m.Unit
				parts = append(parts, fmt.Sprintf("%s=%.4g", k, m.Value))
			}
			sort.Strings(parts)
			fmt.Fprintf(stdout, "run %d/%d %s seed %d: %s\n", r+1, n, name, ro.seed, strings.Join(parts, " "))
		}
	}
	fmt.Fprintf(stdout, "%-14s %-28s %12s %12s %12s %7s\n", "workload", "metric", "median", "q1", "q3", "spread")
	for _, name := range names {
		metrics := make([]string, 0, len(values[name]))
		for k := range values[name] {
			metrics = append(metrics, k)
		}
		sort.Strings(metrics)
		for _, k := range metrics {
			v := values[name][k]
			q1, q3 := quartiles(v)
			fmt.Fprintf(stdout, "%-14s %-28s %12.5g %12.5g %12.5g %7.3f %s\n", name, k, median(v), q1, q3, spread(v), units[k])
		}
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run ("+strings.Join(workloadNames(), ", ")+") or all")
	seed := fs.Uint64("seed", 1, "seed of the run's inputs")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 for a traced run: per-layer metrics and a span file instead of end-to-end metrics")
	repeat := fs.Int("repeat", 0, "calibrate: run each workload this many times and print median and quartiles")
	out := fs.String("out", ".bench_build", "scratch directory")
	child := fs.Bool("child", false, "run the workload in this process (the parent uses it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchmark: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	names := []string{*workload}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected arguments %q", fs.Args())
	case *workload == "all":
		names = workloadNames()
	case !slices.Contains(workloadNames(), *workload):
		return usage("unknown workload %q", *workload)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return usage("-trace must be 0 or 1")
	}
	if *seconds <= 0 || *repeat < 0 {
		return usage("-seconds must be positive and -repeat not negative")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, root: ".", out: *out}
	switch {
	case *child && len(names) == 1:
		return runChild(names[0], o, stdout, stderr)
	case *child:
		return usage("-child runs one workload")
	case *repeat > 0:
		return calibrate(names, o, *repeat, stdout, stderr)
	}

	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		res, err := spawn(name, o, stdout, stderr, len(names) == 1)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[name+"."+k] = m
		}
	}
	if len(names) > 1 {
		fmt.Fprintln(stdout, all.json())
	}
	if !all.Correct {
		return 1
	}
	return 0
}
