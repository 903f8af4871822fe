// softcache-benchpair runs the repository's benchmark (benchmark/run.sh) on
// two revisions in alternating pairs and compares them: the checkout it is
// run in (working tree included) against a base revision checked out in a
// temporary git worktree. Each side builds and runs its own benchmark, so a
// change to the benchmark itself is measured the way each side defines it.
// The first pair runs the base first, the second the change first, and so
// on, so drift on the host falls on both sides alike.
//
// The workload "perf" pairs the kernel perf rows instead: each side builds
// its own cmd/softcache-perf once into its build directory and runs it
// with -quick, writing perf-<pair>.json there, and each row's ns/record is
// one metric. -seconds does not apply.
//
// Usage:
//
//	softcache-benchpair                          # figures, 10 pairs of 20 s against merge-base(HEAD, main)
//	softcache-benchpair -base HEAD~1 -workload serve-unique -pairs 4
//	softcache-benchpair -workload perf -pairs 5  # the perf rows
//	softcache-benchpair -pairs 1 -seconds 2      # smoke run
//
// It prints every run's metrics, then per metric each side's median and
// quartiles, how many pairs the change won and the ratio of the medians;
// a metric one side lacks is printed as absent there. Nothing is gated.
// A metric's better direction is read from BENCHMARK.json (lower when the
// file does not name it). Everything it writes — the worktree and each
// side's build directory — stays under the build directory
// ($CARGO_TARGET_DIR, default .bench_build), and the worktree is removed
// when the run ends. A perf side builds into Go's own build cache, as go
// run does.
//
// The process exits 0 when every run succeeded, 1 when a run failed or
// the worktree could not be made, and 2 on usage errors.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"

	"softcache/internal/cli"
)

const tool = "softcache-benchpair"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	base := fs.String("base", "", "base revision (default: the merge-base of HEAD and main)")
	workload := fs.String("workload", "figures", "benchmark workload to run on both sides, or perf for the perf rows")
	pairs := fs.Int("pairs", 10, "number of alternating pairs")
	seconds := fs.Float64("seconds", 20, "measured seconds per benchmark run (not perf)")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return cli.ExitUsage
	}
	if fs.NArg() > 0 {
		return cli.Exit(stderr, tool, cli.UsageErrorf("unexpected arguments: %v", fs.Args()))
	}
	if *pairs < 1 || *seconds <= 0 {
		return cli.Exit(stderr, tool, cli.UsageErrorf("-pairs must be >= 1 and -seconds > 0"))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	return cli.Exit(stderr, tool, runPairs(ctx, *base, *workload, *pairs, *seconds, stdout, stderr))
}

// side is one revision under test and the runs made on it.
type side struct {
	name string
	dir  string // checkout root
	out  string // its CARGO_TARGET_DIR
	runs []map[string]float64
}

// perfWorkload names the perf rows in place of a benchmark workload.
// Each perf run is softcache-perf -quick at its default run length
// (docs/PERF.md "Comparing two revisions" has the spread that chose it).
const perfWorkload = "perf"

func runPairs(ctx context.Context, base, workload string, pairs int, seconds float64, stdout, stderr io.Writer) error {
	root, err := git(ctx, "", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	if base == "" {
		if base, err = git(ctx, root, "merge-base", "HEAD", "main"); err != nil {
			return err
		}
	}
	rev, err := git(ctx, root, "rev-parse", "--verify", base+"^{commit}")
	if err != nil {
		return cli.Usage(fmt.Errorf("-base %s: %w", base, err))
	}
	build := os.Getenv("CARGO_TARGET_DIR")
	if build == "" {
		build = filepath.Join(root, ".bench_build")
	}
	// The sides run in different directories.
	if build, err = filepath.Abs(build); err != nil {
		return err
	}
	tree := filepath.Join(build, "pair-base")
	// A tree left by an interrupted run is replaced.
	_, _ = git(ctx, root, "worktree", "remove", "--force", tree)
	if _, err := git(ctx, root, "worktree", "add", "--detach", tree, rev); err != nil {
		return err
	}
	defer func() {
		// Removed with a fresh context: an interrupt must not keep it.
		if _, err := git(context.Background(), root, "worktree", "remove", "--force", tree); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", tool, err)
		}
	}()

	sides := []*side{
		{name: "base", dir: tree, out: filepath.Join(build, "pair-out", "base")},
		{name: "change", dir: root, out: filepath.Join(build, "pair-out", "change")},
	}
	length := fmt.Sprintf("%g s", seconds)
	if workload == perfWorkload {
		length = "softcache-perf -quick"
		// Offline and on the local toolchain, as benchmark/run.sh builds.
		for _, s := range sides {
			cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(s.out, "softcache-perf"), "./cmd/softcache-perf")
			cmd.Dir, cmd.Stdout, cmd.Stderr = s.dir, stderr, stderr
			cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("building the %s side's softcache-perf: %w", s.name, err)
			}
		}
	}
	fmt.Fprintf(stdout, "base %s, change: working tree of %s; %s, %d pairs of %s\n", shortRev(rev), root, workload, pairs, length)
	for i := 0; i < pairs; i++ {
		order := sides
		if i%2 == 1 {
			order = []*side{sides[1], sides[0]}
		}
		for _, s := range order {
			m, err := runOnce(ctx, s, workload, seconds, i+1, stderr)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", i+1, s.name, err)
			}
			s.runs = append(s.runs, m)
			fmt.Fprintf(stdout, "pair %2d %-6s %s\n", i+1, s.name, formatRun(m))
		}
	}
	fmt.Fprint(stdout, summarize(sides[0].runs, sides[1].runs, readBetter(filepath.Join(root, "BENCHMARK.json"))))
	return nil
}

// runOnce makes one side's run of pair i. A perf run returns each row's
// ns/record from the JSON report its softcache-perf writes; a benchmark
// run returns the metrics of the last line of its output, plus its
// attempted and failed operation counts.
func runOnce(ctx context.Context, s *side, workload string, seconds float64, i int, stderr io.Writer) (map[string]float64, error) {
	if workload == perfWorkload {
		out := filepath.Join(s.out, fmt.Sprintf("perf-%d.json", i))
		cmd := exec.CommandContext(ctx, filepath.Join(s.out, "softcache-perf"), "-quick", "-out", out)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			return nil, err
		}
		data, err := os.ReadFile(out)
		if err != nil {
			return nil, err
		}
		return parsePerf(data)
	}
	cmd := exec.CommandContext(ctx, "sh", "benchmark/run.sh",
		"--workload", workload, "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = s.dir
	cmd.Env = append(os.Environ(), "CARGO_TARGET_DIR="+s.out)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	err := cmd.Run()
	m, perr := parseResult(out.Bytes())
	if err != nil {
		return m, fmt.Errorf("%w\n%s", err, out.Bytes())
	}
	return m, perr
}

// parseResult reads the benchmark's last output line, one JSON object.
func parseResult(out []byte) (map[string]float64, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Attempted int `json:"attempted"`
		Failed    int `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Metrics == nil {
		return nil, errors.New("no result line in the benchmark's output")
	}
	m := map[string]float64{"attempted": float64(res.Attempted), "failed": float64(res.Failed)}
	for name, v := range res.Metrics {
		m[name] = v.Value
	}
	return m, nil
}

// parsePerf maps each row of a softcache-perf JSON report to its
// ns/record. Only the row fields are read, so a base side writing
// another schema still pairs the rows the two sides share.
func parsePerf(data []byte) (map[string]float64, error) {
	var rep struct {
		Rows []struct {
			Name string  `json:"name"`
			Ns   float64 `json:"ns_per_record"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &rep); err != nil || len(rep.Rows) == 0 {
		return nil, errors.New("no rows in the perf report")
	}
	m := map[string]float64{}
	for _, r := range rep.Rows {
		m[r.Name] = r.Ns
	}
	return m, nil
}

func formatRun(m map[string]float64) string {
	var parts []string
	for _, name := range sortedKeys(m) {
		parts = append(parts, fmt.Sprintf("%s=%.6g", name, m[name]))
	}
	return strings.Join(parts, " ")
}

// readBetter maps each metric BENCHMARK.json names to whether higher is
// better. An unreadable file leaves every metric lower-is-better.
func readBetter(path string) map[string]bool {
	higher := map[string]bool{"attempted": true}
	data, err := os.ReadFile(path)
	if err != nil {
		return higher
	}
	var spec struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	if json.Unmarshal(data, &spec) != nil {
		return higher
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		higher[m.Name] = m.Better == "higher"
	}
	return higher
}

// summarize renders, per metric, each side's median and quartiles, the
// change's wins over the pairs (strictly better in its pair) and the
// change-to-base ratio of the medians. A metric that one side never
// reported is printed as absent there, with neither wins nor a ratio.
func summarize(base, change []map[string]float64, higher map[string]bool) string {
	var names []string
	width := len("metric")
	for _, m := range slices.Concat(base, change) {
		for name := range m {
			names = append(names, name)
			width = max(width, len(name))
		}
	}
	slices.Sort(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s %34s %34s %6s %7s\n", width, "metric", "base median [q1, q3]", "change median [q1, q3]", "wins", "ratio")
	for _, name := range slices.Compact(names) {
		var bv, cv []float64
		won, paired := 0, 0
		for i := range base {
			x, inBase := base[i][name]
			y, inChange := change[i][name]
			if inBase {
				bv = append(bv, x)
			}
			if inChange {
				cv = append(cv, y)
			}
			if inBase && inChange {
				paired++
				if (higher[name] && y > x) || (!higher[name] && y < x) {
					won++
				}
			}
		}
		wins, ratio := "-", "-"
		if paired > 0 {
			wins = fmt.Sprintf("%d/%d", won, paired)
			if bm := quartiles(bv)[1]; bm != 0 {
				ratio = fmt.Sprintf("%.3f", quartiles(cv)[1]/bm)
			}
		}
		fmt.Fprintf(&b, "%-*s %34s %34s %6s %7s\n", width, name, formatQ(bv), formatQ(cv), wins, ratio)
	}
	return b.String()
}

// formatQ renders the median and quartiles of v, or "absent" when the
// side never reported the metric.
func formatQ(v []float64) string {
	if len(v) == 0 {
		return "absent"
	}
	q := quartiles(v)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q[1], q[0], q[2])
}

// quartiles returns the first quartile, median and third quartile of v,
// interpolating linearly between order statistics.
func quartiles(v []float64) [3]float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

func shortRev(rev string) string {
	if len(rev) > 12 {
		return rev[:12]
	}
	return rev
}
