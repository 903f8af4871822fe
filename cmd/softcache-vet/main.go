// softcache-vet runs the static diagnostics passes (package vet) over a
// loop-nest program — a .loop source file or a built-in workload — and
// optionally the dynamic tag-precision audit that replays the generated
// trace through the reuse-distance oracle.
//
// Usage:
//
//	softcache-vet -source examples/dsl/stencil.loop     # lint a DSL file
//	softcache-vet -workload MV -deps                    # dependence graph + tags
//	softcache-vet -workload MV -audit                   # tag-precision audit
//	softcache-vet -workload all -audit                  # audit all 9 benchmarks
//	softcache-vet -source prog.loop -json               # machine-readable
//
// The exit status is 1 when any error-severity finding is reported (the
// program would abort at trace-generation time), 2 on usage errors and on
// operational failures (unreadable source, a failed trace generation) that
// prevented the checks from running, and 0 otherwise — warnings and
// advisories do not fail a build, and scripts can trust that exit 1 means
// the program is dirty.
//
// With -json, each finding is one JSON object per line (file, line, col,
// pass, severity, message); an -audit run appends one summary object per
// program. The text output is unchanged by this mode's existence.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"softcache/internal/cli"
	"softcache/internal/depend"
	"softcache/internal/lang"
	"softcache/internal/locality"
	"softcache/internal/loopir"
	"softcache/internal/vet"
	"softcache/internal/workloads"
)

const tool = "softcache-vet"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool; split from main for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	source := fs.String("source", "", "loop-nest source file to vet (see internal/lang)")
	workload := fs.String("workload", "", `built-in workload to vet, or "all" for the 9 benchmarks`)
	scaleName := fs.String("scale", "paper", "workload scale: paper or test")
	audit := fs.Bool("audit", false, "run the dynamic tag-precision audit (generates the trace)")
	seed := fs.Uint64("seed", 1, "trace-generation seed for the audit")
	window := fs.Int("window", 0, "reuse-oracle window in distinct lines (0 = 65536)")
	lineBytes := fs.Int("line", 0, "cache-line size in bytes for the oracle (0 = 32)")
	deps := fs.Bool("deps", false, "print the dependence graph and resolved tags before the findings")
	jsonOut := fs.Bool("json", false, "emit JSON instead of human-readable text")
	listPasses := fs.Bool("passes", false, "list the registered passes and exit")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}

	if *listPasses {
		for _, p := range vet.Passes() {
			kind := "static"
			if p.Dynamic {
				kind = "dynamic"
			}
			fmt.Fprintf(stdout, "%-12s %-8s %s\n", p.Name, kind, p.Doc)
		}
		return cli.ExitOK
	}

	if (*source == "") == (*workload == "") {
		cli.Errorln(stderr, tool, cli.UsageErrorf("exactly one of -source or -workload is required"))
		fs.Usage()
		return cli.ExitUsage
	}

	scale, err := workloads.ParseScale(*scaleName)
	if err != nil {
		return cli.Exit(stderr, tool, cli.Usage(err))
	}

	opts := vet.Options{
		Audit:       *audit,
		Seed:        *seed,
		WindowLines: *window,
		LineBytes:   *lineBytes,
	}

	var names []string
	switch {
	case *source != "":
		names = []string{*source}
	case *workload == "all":
		names = workloads.Benchmarks()
	default:
		names = []string{*workload}
	}

	var results []*vet.Result
	for _, name := range names {
		p, err := load(name, *source != "", scale)
		if err != nil {
			return cli.Exit(stderr, tool, cli.Operational(err))
		}
		res, err := vet.Run(p, opts)
		if err != nil {
			return cli.Exit(stderr, tool, cli.Operational(err))
		}
		results = append(results, res)
		if *jsonOut {
			if err := printJSON(stdout, name, res); err != nil {
				return cli.Exit(stderr, tool, cli.Operational(err))
			}
		} else {
			if *deps {
				printDeps(stdout, p)
			}
			printResult(stdout, res)
		}
	}

	if !*jsonOut && *audit && len(results) > 1 {
		printAuditTable(stdout, results)
	}

	for _, res := range results {
		if res.HasErrors() {
			return cli.ExitFailure
		}
	}
	return cli.ExitOK
}

// printJSON writes the result as line-delimited JSON: one object per
// finding so CI greps and editors can consume the stream without
// buffering, then — for audit runs — one summary object for the program.
// The file field is the .loop path for -source runs and the workload
// name otherwise.
func printJSON(w io.Writer, file string, res *vet.Result) error {
	enc := json.NewEncoder(w)
	for _, f := range res.Findings {
		line := struct {
			File     string       `json:"file"`
			Line     int          `json:"line,omitempty"`
			Col      int          `json:"col,omitempty"`
			Pass     string       `json:"pass"`
			Severity vet.Severity `json:"severity"`
			Message  string       `json:"message"`
		}{file, f.Line, f.Col, f.Pass, f.Severity, f.Message}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	if res.Audit != nil {
		summary := struct {
			File    string           `json:"file"`
			Program string           `json:"program"`
			Audit   *vet.AuditReport `json:"audit"`
		}{file, res.Program, res.Audit}
		if err := enc.Encode(summary); err != nil {
			return err
		}
	}
	return nil
}

// load builds the program: a parsed source file or a built-in workload.
func load(name string, isSource bool, scale workloads.Scale) (*loopir.Program, error) {
	if isSource {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		return lang.Parse(string(data))
	}
	return workloads.BuildProgram(name, scale)
}

// printDeps dumps the dependence graph — the groups, edges and resolved
// tags the passes reason from.
func printDeps(w io.Writer, p *loopir.Program) {
	g, err := depend.Analyze(p)
	if err != nil {
		fmt.Fprintln(w, "dependence analysis failed:", err)
		return
	}
	tags := locality.Derive(g, locality.Options{})
	fmt.Fprintf(w, "== %s: dependence graph ==\n", p.Name)
	fmt.Fprintf(w, "references (%d):\n", len(g.Refs))
	for _, r := range g.Refs {
		t := tags[r.Access.ID]
		mark := ""
		if r.Poisoned {
			mark = " poisoned"
		}
		if r.Indirect {
			mark += " indirect"
		}
		fmt.Fprintf(w, "  %-24s temporal=%-5v spatial=%-5v%s\n", r, t.Temporal, t.Spatial, mark)
	}
	fmt.Fprintf(w, "uniformly generated groups (%d):\n", len(g.Groups))
	for _, grp := range g.Groups {
		fmt.Fprintf(w, "  %s shape %s:", grp.Array, grp.Shape)
		for _, r := range grp.Refs {
			fmt.Fprintf(w, " %s", r)
		}
		fmt.Fprintf(w, " (leader %s)\n", grp.Leader())
	}
	fmt.Fprintf(w, "dependences (%d):\n", len(g.Deps))
	for _, d := range g.Deps {
		fmt.Fprintf(w, "  %s\n", d)
	}
}

// printResult writes the findings compiler-style, one per line.
func printResult(w io.Writer, res *vet.Result) {
	fmt.Fprintf(w, "== %s ==\n", res.Program)
	if len(res.Findings) == 0 {
		fmt.Fprintln(w, "no findings")
	}
	for _, f := range res.Findings {
		fmt.Fprintln(w, f)
	}
	if a := res.Audit; a != nil {
		fmt.Fprintf(w, "tag-precision audit: %d records, line %dB, window %d lines\n",
			a.Records, a.LineBytes, a.WindowLines)
		fmt.Fprintf(w, "  temporal: precision %.3f recall %.3f (%d/%d tagged, %d observed)\n",
			a.Temporal.Precision, a.Temporal.Recall,
			a.Temporal.TruePositive, a.Temporal.TaggedRefs, a.Temporal.ObservedRefs)
		fmt.Fprintf(w, "  spatial:  precision %.3f recall %.3f (%d/%d tagged, %d observed)\n",
			a.Spatial.Precision, a.Spatial.Recall,
			a.Spatial.TruePositive, a.Spatial.TaggedRefs, a.Spatial.ObservedRefs)
	}
	errs, warns := res.Count(vet.Error), res.Count(vet.Warning)
	fmt.Fprintf(w, "%d error(s), %d warning(s), %d info\n\n", errs, warns, res.Count(vet.Info))
}

// printAuditTable summarises a multi-workload audit the way
// docs/WORKLOADS.md tabulates it.
func printAuditTable(w io.Writer, results []*vet.Result) {
	fmt.Fprintln(w, "== tag-precision audit: all workloads ==")
	fmt.Fprintf(w, "%-8s %10s  %9s %9s  %9s %9s\n",
		"", "records", "T-prec", "T-recall", "S-prec", "S-recall")
	for _, res := range results {
		a := res.Audit
		if a == nil {
			continue
		}
		fmt.Fprintf(w, "%-8s %10d  %9.3f %9.3f  %9.3f %9.3f\n",
			res.Program, a.Records,
			a.Temporal.Precision, a.Temporal.Recall,
			a.Spatial.Precision, a.Spatial.Recall)
	}
}
