// Command softcache-analyze runs softcache's own static-analysis suite
// (internal/analyze/passes) as a go vet tool:
//
//	go build -o softcache-analyze ./cmd/softcache-analyze
//	go vet -vettool=$(pwd)/softcache-analyze ./...
//
// cmd/go probes the tool with -V=full and -flags, then invokes it once
// per package with a .cfg work unit; the tool type-checks from the
// export data cmd/go already built, runs every analyzer and reports
// findings on stderr, those in _test.go files included. go vet forwards
// -json (the aggregate JSON on stdout) and -c (accepted, ignored).
// Incremental, cached and parallel across packages come from cmd/go.
//
// Any other argument, such as a package pattern, is a usage error
// (exit 2). A unit the analysis could not run exits 2 as well; findings
// exit 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"softcache/internal/analyze"
	"softcache/internal/analyze/passes"
	"softcache/internal/cli"
)

const tool = "softcache-analyze"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	// The two cmd/go probe forms come before flag parsing: the tool
	// must answer them exactly, with nothing else on stdout.
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			analyze.PrintVersion(stdout, tool)
			return cli.ExitOK
		}
	}
	if len(args) == 1 && (args[0] == "-flags" || args[0] == "--flags") {
		analyze.PrintFlags(stdout)
		return cli.ExitOK
	}

	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the go vet aggregate JSON on stdout")
	fs.Int("c", -1, "accepted for go vet compatibility; ignored")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: go vet -vettool=$(pwd)/%s [packages]\n\nAnalyzers (all run):\n", tool)
		for _, a := range passes.All() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintln(stderr, "\nFlags (go vet forwards them):")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	rest := fs.Args()
	if len(rest) != 1 || !strings.HasSuffix(rest[0], ".cfg") {
		return cli.Exit(stderr, tool, cli.UsageErrorf(
			"runs only as a go vet tool: go build -o %[1]s ./cmd/%[1]s && go vet -vettool=$(pwd)/%[1]s [packages]", tool))
	}
	return runUnit(rest[0], *jsonOut, stdout, stderr)
}

// runUnit handles one go vet work unit. Text findings go to stderr and
// exit 1 (any nonzero fails the vet run); under go vet -json the
// aggregate JSON goes to stdout and the exit is 0 so cmd/go can keep
// collecting.
func runUnit(cfgFile string, jsonOut bool, stdout, stderr io.Writer) int {
	diags, fset, pkgID, err := analyze.Unitchecker(cfgFile, passes.All())
	if err != nil {
		return cli.Exit(stderr, tool, cli.Operational(err))
	}
	if jsonOut {
		if fset != nil {
			if err := analyze.WriteVetJSON(stdout, fset, pkgID, diags); err != nil {
				return cli.Exit(stderr, tool, cli.Operational(err))
			}
		}
		return cli.ExitOK
	}
	if len(diags) > 0 {
		analyze.WriteDiagnosticsText(stderr, fset, diags)
		return cli.ExitFailure
	}
	return cli.ExitOK
}
