// Package bench regenerates every figure of the paper's evaluation. Each
// experiment is registered under its figure id ("1a" … "12", plus
// "ablations") and produces a Report: one or more tables shaped like the
// paper's plot (same rows, same series) plus shape checks that assert the
// qualitative claims the reproduction is expected to preserve (who wins,
// roughly by how much, where crossovers fall).
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"softcache/internal/core"
	"softcache/internal/loopir"
	"softcache/internal/metrics"
	"softcache/internal/timing"
	"softcache/internal/trace"
	"softcache/internal/tracegen"
	"softcache/internal/workloads"
)

// Context carries experiment-wide state: the workload scale, the trace
// seed, and a cache of the named workload traces (the ones requested
// through Trace), so each of them is generated once per process instead
// of once per configuration. The parameterised variants some figures
// sweep (block size, leading dimension, issue gap, prefetch distance) are
// read by a single experiment: they are generated where they are used and
// dropped after their simulation, never cached. Context is safe for
// concurrent use: the experiment harness runs several figures at once
// against one shared Context, and each named trace is still generated
// exactly once.
type Context struct {
	Scale workloads.Scale
	Seed  uint64
	// Check enables the runtime invariant checker (cache.RuntimeChecks) on
	// every simulation run through this context.
	Check bool
	// Shards, when > 1, routes single-config simulations through the
	// set-sharded kernel (core.SimulateSharded). Fused multi-config passes
	// (SimulateMany) are unaffected: the fused walk and the sharded kernel
	// are alternative parallel strategies, not composable ones. The default
	// 0 keeps every figure byte-identical to the sequential kernel.
	Shards int

	ctx    context.Context
	traces *traceCache
}

// traceCache deduplicates trace generation across concurrent experiments:
// the first requester of a workload generates it inside a sync.Once, later
// requesters block on that Once and share the result.
type traceCache struct {
	mu sync.Mutex
	m  map[string]*traceEntry // guarded by mu
}

type traceEntry struct {
	once sync.Once
	t    *trace.Trace
	err  error
}

// NewContext builds a context at the given scale. Seed 0 selects the
// default seed 1.
func NewContext(scale workloads.Scale, seed uint64) *Context {
	if seed == 0 {
		seed = 1
	}
	return &Context{
		Scale:  scale,
		Seed:   seed,
		traces: &traceCache{m: make(map[string]*traceEntry)},
	}
}

// WithContext returns a copy of c whose simulations are canceled when ctx
// is. The trace cache is shared with c, so per-experiment contexts handed
// out by the harness still generate each workload once.
func (c *Context) WithContext(ctx context.Context) *Context {
	c2 := *c
	c2.ctx = ctx
	return &c2
}

func (c *Context) context() context.Context {
	if c.ctx != nil {
		return c.ctx
	}
	return context.Background()
}

// Trace returns the tagged trace of the named workload, building it at
// most once process-wide even when experiments race for it.
func (c *Context) Trace(name string) (*trace.Trace, error) {
	c.traces.mu.Lock()
	e, ok := c.traces.m[name]
	if !ok {
		e = &traceEntry{}
		c.traces.m[name] = e
	}
	c.traces.mu.Unlock()
	e.once.Do(func() {
		e.t, e.err = workloads.Trace(name, c.Scale, c.Seed)
	})
	return e.t, e.err
}

// Simulate runs cfg over the named workload's trace, honouring the
// context's cancellation and invariant-check settings.
func (c *Context) Simulate(name string, cfg core.Config) (core.Result, error) {
	t, err := c.Trace(name)
	if err != nil {
		return core.Result{}, err
	}
	if c.Check {
		cfg.RuntimeChecks = true
	}
	if c.Shards > 1 {
		return core.SimulateSharded(c.context(), cfg, t, c.Shards)
	}
	return core.SimulateContext(c.context(), cfg, t)
}

// SimulateMany runs every configuration over the named workload's trace
// in one fused pass (see simulateTrace). Results are index-aligned with
// cfgs and identical to len(cfgs) Simulate calls.
func (c *Context) SimulateMany(name string, cfgs []core.Config) ([]core.Result, error) {
	t, err := c.Trace(name)
	if err != nil {
		return nil, err
	}
	return c.simulateTrace(t, cfgs...)
}

// simulateTrace runs every configuration over t in one fused pass
// (core.SimulateManyTrace), honouring the context's cancellation and
// invariant-check settings: each record batch is walked once and fed to
// all simulators, so a figure's whole config axis costs one trace
// traversal. It is the entry point for the single-use variant traces
// figures generate themselves as well as for the cached named ones.
func (c *Context) simulateTrace(t *trace.Trace, cfgs ...core.Config) ([]core.Result, error) {
	if c.Check {
		cfgs = append([]core.Config(nil), cfgs...)
		for i := range cfgs {
			cfgs[i].RuntimeChecks = true
		}
	}
	return core.SimulateManyTrace(c.context(), cfgs, t)
}

// simulateProgram generates p's trace with the context's seed and the
// given gap model (nil selects the paper's fig. 4b distribution) and runs
// cfgs over it through simulateTrace. It serves the single-use variants
// figures sweep (block size, leading dimension, issue gap, prefetch
// distance): the trace is not cached, so it is dropped as soon as the
// simulation returns.
func (c *Context) simulateProgram(p *loopir.Program, gaps *timing.GapModel, cfgs ...core.Config) ([]core.Result, error) {
	t, err := tracegen.Generate(p, tracegen.Options{Seed: c.Seed, Gaps: gaps})
	if err != nil {
		return nil, err
	}
	return c.simulateTrace(t, cfgs...)
}

// Check is one qualitative shape assertion.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Report is the output of one experiment.
type Report struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	Notes  []string
	Checks []Check
}

// Passed reports whether every shape check passed.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Fprint renders the report.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "=== Figure %s: %s ===\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		t.Fprint(w, "%.3f")
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "[%s] %s", status, c.Name)
		if c.Detail != "" {
			fmt.Fprintf(w, " (%s)", c.Detail)
		}
		fmt.Fprintln(w)
	}
}

func (r *Report) String() string {
	var b strings.Builder
	r.Fprint(&b)
	return b.String()
}

func (r *Report) check(name string, pass bool, detail string) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: detail})
}

// Experiment regenerates one figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Context) (*Report, error)
}

var experiments = map[string]Experiment{}
var experimentOrder []string

func register(e Experiment) {
	if _, dup := experiments[e.ID]; dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	experiments[e.ID] = e
	experimentOrder = append(experimentOrder, e.ID)
}

// Get returns the experiment for a figure id.
func Get(id string) (Experiment, error) {
	e, ok := experiments[id]
	if !ok {
		return Experiment{}, fmt.Errorf("bench: unknown figure %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return e, nil
}

// IDs lists every registered figure id in registration (paper) order.
func IDs() []string {
	out := append([]string(nil), experimentOrder...)
	return out
}

// RunAll executes every experiment and returns the reports in paper order.
func RunAll(ctx *Context) ([]*Report, error) {
	var reports []*Report
	for _, id := range IDs() {
		e := experiments[id]
		r, err := e.Run(ctx)
		if err != nil {
			return reports, fmt.Errorf("bench: figure %s: %w", id, err)
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// amatTable runs the given configurations over the given workloads and
// returns a workloads × configs AMAT table (the shape of most figures).
// The config axis is fused: each workload's trace is walked once for the
// whole row rather than once per column.
func amatTable(ctx *Context, title string, names []string, configs []namedConfig, metric func(core.Result) float64) (*metrics.Table, error) {
	cols := make([]string, len(configs))
	cfgs := make([]core.Config, len(configs))
	for i, c := range configs {
		cols[i] = c.label
		cfgs[i] = c.cfg
	}
	tbl := metrics.NewTable(title, "benchmark", cols...)
	for _, name := range names {
		results, err := ctx.SimulateMany(name, cfgs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		row := make([]float64, len(configs))
		for i, res := range results {
			row[i] = metric(res)
		}
		tbl.AddRow(name, row...)
	}
	return tbl, nil
}

type namedConfig struct {
	label string
	cfg   core.Config
}

// amat is the default metric.
func amat(r core.Result) float64 { return r.AMAT() }

// columnWins counts how many rows have tbl[row][a] <= tbl[row][b] + eps.
func columnWins(tbl *metrics.Table, a, b int, eps float64) (wins, rows int) {
	rows = tbl.Rows()
	for i := 0; i < rows; i++ {
		if tbl.Value(i, a) <= tbl.Value(i, b)+eps {
			wins++
		}
	}
	return wins, rows
}

// geomean of a column (all values must be positive).
func columnGeomean(tbl *metrics.Table, col int) float64 {
	prod := 1.0
	n := tbl.Rows()
	if n == 0 {
		return 0
	}
	for i := 0; i < n; i++ {
		prod *= tbl.Value(i, col)
	}
	return pow(prod, 1/float64(n))
}

func pow(x, y float64) float64 { return math.Pow(x, y) }
