// Package vet is a multi-pass diagnostics framework over loop-nest
// programs: the compiler front half the paper assumes but never shows.
// Each pass inspects the dependence graph (package depend) and the derived
// tagging (package locality) and reports findings — a severity, a message,
// and when the program came from a .loop source, the line/column of the
// offending statement.
//
// The shipped passes:
//
//   - bounds:     subscripts provably or possibly outside declared dims
//   - deadstore:  stores overwritten before any read of the same element
//   - stride:     cache-hostile stride-N innermost sweeps, with a concrete
//     loop-interchange advisory when an enclosing loop offers a
//     unit-stride alternative
//   - callpoison: loop bodies whose CALL destroyed tags the analysis had
//     derived, listing every lost tag (§2.3's no-interprocedural rule)
//   - indirect:   indirect subscripts the affine analysis cannot tag,
//     where a §4.1 user directive would help
//   - tagaudit:   replays the generated trace through a reuse-distance
//     oracle (package stackdist) and reports per-reference precision and
//     recall of the static temporal/spatial tags against observed reuse —
//     the quantitative check behind the paper's "elementary techniques
//     suffice" claim
//
// cmd/softcache-vet runs the passes from the command line.
package vet

import (
	"fmt"
	"sort"

	"softcache/internal/depend"
	"softcache/internal/locality"
	"softcache/internal/loopir"
)

// Severity ranks findings. Error-severity findings mean the program will
// abort at trace-generation time (or is meaningfully broken); softcache-vet
// exits nonzero only for those.
type Severity int

const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	default:
		return "info"
	}
}

// MarshalJSON encodes severities as their lowercase names.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Finding is one diagnostic.
type Finding struct {
	// Pass names the pass that produced the finding.
	Pass string `json:"pass"`
	// Severity ranks it; Error makes softcache-vet exit nonzero.
	Severity Severity `json:"severity"`
	// Line and Col locate the offending statement in the .loop source
	// (0 when the program was built in Go and carries no positions).
	Line int `json:"line,omitempty"`
	Col  int `json:"col,omitempty"`
	// RefID is the access site the finding is about (0 when it concerns
	// a whole loop body or the program).
	RefID int `json:"ref,omitempty"`
	// Site renders the site or statement, e.g. "load A(j2,j1)#2".
	Site string `json:"site,omitempty"`
	// Message is the human-readable diagnostic.
	Message string `json:"message"`
}

// String renders the finding one-per-line, compiler style.
func (f Finding) String() string {
	loc := "-"
	if f.Line > 0 {
		loc = fmt.Sprintf("%d:%d", f.Line, f.Col)
	}
	if f.Site != "" {
		return fmt.Sprintf("%s: %s [%s]: %s: %s", loc, f.Severity, f.Pass, f.Site, f.Message)
	}
	return fmt.Sprintf("%s: %s [%s]: %s", loc, f.Severity, f.Pass, f.Message)
}

// Pass is one registered diagnostic pass.
type Pass struct {
	Name string
	// Doc is a one-line description shown by softcache-vet.
	Doc string
	// Dynamic passes generate and replay a trace; they only run when
	// Options.Audit is set.
	Dynamic bool
	Run     func(*Context) ([]Finding, error)
}

// passes is the registry, in execution order.
var passes []Pass

func registerPass(p Pass) { passes = append(passes, p) }

// Passes returns the registered passes in execution order.
func Passes() []Pass { return append([]Pass(nil), passes...) }

// Options configure a vet run.
type Options struct {
	// Audit enables the dynamic tag-precision audit (trace generation and
	// replay; costs time proportional to the trace).
	Audit bool
	// Seed drives trace generation for the audit (0 means 1).
	Seed uint64
	// WindowLines is the reuse-oracle window in distinct cache lines: two
	// touches further apart than this do not count as observed reuse.
	// 0 means the default of 65536 lines (2 MiB of 32-byte lines).
	WindowLines int
	// LineBytes is the cache-line size for the oracle (0 means 32, the
	// paper's physical line).
	LineBytes int
}

// Context carries the analysed program through the passes.
type Context struct {
	Prog  *loopir.Program
	Graph *depend.Graph
	Tags  locality.Tagging
	Opts  Options

	audit *AuditReport // set by the tagaudit pass, collected by Run
}

// Result is a full vet run.
type Result struct {
	Program  string    `json:"program"`
	Findings []Finding `json:"findings"`
	// Audit is the tag-precision audit report (nil unless Options.Audit).
	Audit *AuditReport `json:"audit,omitempty"`
}

// Count returns the number of findings at the given severity.
func (r *Result) Count(s Severity) int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == s {
			n++
		}
	}
	return n
}

// HasErrors reports whether any finding is error-severity.
func (r *Result) HasErrors() bool { return r.Count(Error) > 0 }

// Run analyses the program and executes every registered pass (dynamic
// passes only when opts.Audit is set). The program is finalized as a side
// effect.
func Run(p *loopir.Program, opts Options) (*Result, error) {
	ctx, err := newContext(p, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Program: p.Name}
	for _, pass := range passes {
		if pass.Dynamic && !opts.Audit {
			continue
		}
		fs, err := pass.Run(ctx)
		if err != nil {
			return nil, fmt.Errorf("vet: pass %s: %w", pass.Name, err)
		}
		if audit, ok := ctx.popAudit(); ok {
			res.Audit = audit
		}
		res.Findings = append(res.Findings, fs...)
	}
	sortFindings(res.Findings)
	return res, nil
}

// newContext analyses p (finalizing it) and derives its tagging.
func newContext(p *loopir.Program, opts Options) (*Context, error) {
	g, err := depend.Analyze(p)
	if err != nil {
		return nil, fmt.Errorf("vet: %w", err)
	}
	return &Context{Prog: p, Graph: g, Tags: locality.Derive(g, locality.Options{}), Opts: opts}, nil
}

// sortFindings orders by severity (errors first), then source position,
// then ref, keeping the output stable for tests and diffs.
func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.RefID < b.RefID
	})
}

// pendingAudit lets the audit pass hand its structured report to Run
// without widening the generic pass signature.
func (c *Context) popAudit() (*AuditReport, bool) {
	if c.audit == nil {
		return nil, false
	}
	a := c.audit
	c.audit = nil
	return a, true
}

// site renders a reference for findings.
func site(r *depend.Ref) string { return r.String() }

// findingAt builds a finding anchored at a reference site.
func findingAt(pass string, sev Severity, r *depend.Ref, format string, args ...interface{}) Finding {
	return Finding{
		Pass:     pass,
		Severity: sev,
		Line:     r.Access.Pos.Line,
		Col:      r.Access.Pos.Col,
		RefID:    r.Access.ID,
		Site:     site(r),
		Message:  fmt.Sprintf(format, args...),
	}
}
