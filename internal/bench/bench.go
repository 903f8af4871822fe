// Package bench regenerates every figure of the paper's evaluation. Each
// experiment is registered under its figure id ("1a" … "12", plus
// "ablations") and produces a Report: one or more tables shaped like the
// paper's plot (same rows, same series) plus shape checks that assert the
// qualitative claims the reproduction is expected to preserve (who wins,
// roughly by how much, where crossovers fall).
package bench

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"softcache/internal/core"
	"softcache/internal/flight"
	"softcache/internal/loopir"
	"softcache/internal/metrics"
	"softcache/internal/trace"
	"softcache/internal/tracegen"
	"softcache/internal/workloads"
)

// Context carries experiment-wide state: the workload scale, the trace
// seed, the worker budget every figure's rows share, and two pass-scoped
// memos that keep a figure pass from doing the same work twice:
//
//   - the named workload traces (the ones requested through Trace), each
//     generated once per Context instead of once per configuration;
//   - the answers of Simulate, keyed by trace name and core.Config, so a
//     (trace, config) pair several figures ask for is simulated once.
//     Check arms the runtime checker inside the config, so checked and
//     unchecked runs never share an answer.
//
// Both memos are filled through one coalescing primitive (flight.Group):
// concurrent requests for one key wait for the caller computing it, and a
// failed or cancelled computation is never stored, so its waiters and
// later callers compute the key again rather than inherit another figure's
// error.
//
// The parameterised variants some figures sweep (block size, leading
// dimension, prefetch distance) are read by a single experiment: they are
// never materialised but streamed from the running generator
// (tracegen.Reader) into the fused kernel, one batch at a time, and are
// not memoised. The issue-gap variants need no generator at all: they
// replay the named traces with their gaps rewritten (simulateGap).
//
// Context is safe for concurrent use: the experiment harness runs several
// figures at once against one shared Context, each named trace and each
// answer is still computed exactly once, and the rows of every figure in
// flight run on one budget of runtime.GOMAXPROCS(0) workers (see each).
type Context struct {
	Scale workloads.Scale
	Seed  uint64
	// Check enables the runtime invariant checker (cache.RuntimeChecks) on
	// every simulation run through this context.
	Check bool

	ctx     context.Context
	traces  *memo[string, *trace.Trace]
	answers *memo[answerKey, core.Result]
	// budget holds one token per row running anywhere on this Context or
	// its WithContext copies; its capacity is the worker count.
	budget chan struct{}
	// inRow marks the copy each hands its rows: the goroutine running it
	// already holds a token, so a nested each must not wait for another.
	inRow bool
}

// answerKey names one simulation: a config over a named workload trace.
type answerKey struct {
	trace string
	cfg   core.Config
}

// memo is the map behind a flight.Group: it keeps every value the group's
// flights computed.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V // guarded by mu
	*flight.Group[K, V]
}

func newMemo[K comparable, V any]() *memo[K, V] {
	s := &memo[K, V]{m: make(map[K]V)}
	s.Group = flight.New[K, V](s)
	return s
}

func (s *memo[K, V]) Load(key K) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

func (s *memo[K, V]) Store(key K, val V) {
	s.mu.Lock()
	s.m[key] = val
	s.mu.Unlock()
}

// NewContext builds a context at the given scale. Seed 0 selects the
// default seed 1.
func NewContext(scale workloads.Scale, seed uint64) *Context {
	if seed == 0 {
		seed = 1
	}
	return &Context{
		Scale:   scale,
		Seed:    seed,
		traces:  newMemo[string, *trace.Trace](),
		answers: newMemo[answerKey, core.Result](),
		budget:  make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
}

// WithContext returns a copy of c whose simulations are canceled when ctx
// is. The memos and the worker budget are shared with c, so
// per-experiment contexts handed out by the harness still compute each
// trace and answer once and together never run more rows than there are
// workers.
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
// most once per Context even when experiments race for it. A failed
// build is not kept: the next call tries again.
func (c *Context) Trace(name string) (*trace.Trace, error) {
	t, _, err := c.traces.Do(c.context(), name, func() (*trace.Trace, error) {
		return workloads.Trace(name, c.Scale, c.Seed)
	})
	return t, err
}

// simulate runs cfg over the named workload's trace for Simulate. Tests
// wrap it to count the simulations.
var simulate = func(ctx context.Context, name string, cfg core.Config, t *trace.Trace) (core.Result, error) {
	res, err := core.Run(ctx, core.Job{Configs: []core.Config{cfg}}, t.Reader())
	if err != nil {
		return core.Result{}, err
	}
	return res[0], nil
}

// Simulate returns the result of cfg over the named workload's trace,
// honouring the context's cancellation and invariant-check settings. An
// answer the Context already holds is looked up; one another row is
// computing is waited for; otherwise this call runs it (core.Run over the
// cached trace) and stores it. A waiting row keeps its worker token: the
// row it waits on already holds one and needs no other to compute, so no
// wait can close a cycle.
func (c *Context) Simulate(name string, cfg core.Config) (core.Result, error) {
	if c.Check {
		cfg.RuntimeChecks = true
	}
	res, _, err := c.answers.Do(c.context(), answerKey{name, cfg}, func() (core.Result, error) {
		t, err := c.Trace(name)
		if err != nil {
			return core.Result{}, err
		}
		return simulate(c.context(), name, cfg, t)
	})
	return res, err
}

// simulateProgram streams p's trace, generated with the context's seed,
// into one fused pass over cfgs (core.Run). It serves the single-use
// variants figures sweep (block size, leading dimension, prefetch
// distance): the trace is never materialised, so a variant in flight holds
// one record batch, not its whole trace.
func (c *Context) simulateProgram(p *loopir.Program, cfgs ...core.Config) ([]core.Result, error) {
	r, err := tracegen.NewReader(p, tracegen.Options{Seed: c.Seed})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return core.Run(c.context(), core.Job{Configs: c.checked(cfgs)}, r)
}

// checked returns cfgs with the runtime invariant checker armed when the
// context asks for it (Check), copying rather than editing the caller's
// slice.
func (c *Context) checked(cfgs []core.Config) []core.Config {
	if !c.Check {
		return cfgs
	}
	cfgs = append([]core.Config(nil), cfgs...)
	for i := range cfgs {
		cfgs[i].RuntimeChecks = true
	}
	return cfgs
}

// each runs fn(rc, i) for every row i in [0, n) on the context's worker
// budget and returns the error of the lowest failing row. Rows must be
// independent: each writes its own slot of a caller-owned slice, and the
// caller builds tables, sums and geomeans from those slots afterwards, in
// index order, so the output does not depend on how rows were scheduled.
//
// The caller works through rows itself, on a token it waits for unless it
// is already inside a row, and adds a helper goroutine only when it can
// take a free token without waiting. Rows are handed out in index order,
// and after a failure no new row starts. A row that nests each must pass
// it rc, the copy it was given: rc marks the token its goroutine holds, so
// nested and concurrent use can neither deadlock nor run more rows than
// the budget has tokens. A panicking row is re-raised on the caller's
// goroutine once the other rows have finished.
func (c *Context) each(n int, fn func(rc *Context, i int) error) error {
	return c.runRows(n, nil, fn)
}

// eachWorkload is each over rows that read named workloads' traces, row i
// reading names[i]. Rows are handed out longest trace first (ties in index
// order, and one row per distinct trace before any repeat, see
// longestFirst): the longest row is the one that would otherwise leave a
// token idle at the end while it finishes alone, as Slalom, nearly two
// thirds of the benchmarks' records, does when it starts sixth.
func (c *Context) eachWorkload(names []string, fn func(rc *Context, i int) error) error {
	return c.runRows(len(names), names, fn)
}

// runRows is each, and with names set eachWorkload. The rows are sized
// once the caller holds its token, so that work stays inside the budget.
func (c *Context) runRows(n int, names []string, fn func(rc *Context, i int) error) error {
	if n == 0 {
		return nil
	}
	rc := c
	if !c.inRow {
		select {
		case c.budget <- struct{}{}:
		case <-c.context().Done():
			return fmt.Errorf("bench: waiting for a worker: %w", c.context().Err())
		}
		defer func() { <-c.budget }()
		cp := *c
		cp.inRow = true
		rc = &cp
	}
	var order []int
	if names != nil {
		order = c.longestFirst(names)
	}
	errs := make([]error, n)
	panics := make([]any, n)
	var next atomic.Int64
	var failed atomic.Bool
	claim := func() (int, bool) {
		if failed.Load() {
			return 0, false
		}
		k := int(next.Add(1) - 1)
		if k >= n {
			return 0, false
		}
		if order != nil {
			return order[k], true
		}
		return k, true
	}
	run := func(i int) {
		defer func() {
			if p := recover(); p != nil {
				panics[i] = p
				failed.Store(true)
			}
		}()
		if errs[i] = fn(rc, i); errs[i] != nil {
			failed.Store(true)
		}
	}
	var wg sync.WaitGroup
	helper := func() {
		defer wg.Done()
		defer func() { <-c.budget }()
		for i, ok := claim(); ok; i, ok = claim() {
			run(i)
		}
	}
	for i, ok := claim(); ok; i, ok = claim() {
		if int(next.Load()) < n {
			select {
			case c.budget <- struct{}{}:
				wg.Add(1)
				go helper()
			default:
			}
		}
		run(i)
	}
	wg.Wait()
	for i := range errs {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}

// repeatEach returns names with each name repeated k times in a row: row
// i of a figure that runs k variants of every workload reads the trace of
// repeatEach(names, k)[i], names[i/k].
func repeatEach(names []string, k int) []string {
	out := make([]string, 0, len(names)*k)
	for _, name := range names {
		for range k {
			out = append(out, name)
		}
	}
	return out
}

// longestFirst returns the row indices of names in the order rows start:
// the first row of each distinct trace, then the rows that repeat a
// trace, each group in descending record count of its trace, ties in
// index order. The first row to read a trace the Context does not hold
// builds it, and a row that repeats that trace waits for the build with
// its worker token held; starting every trace's first row before any
// repeat keeps the other workers building and simulating the other
// traces meanwhile.
func (c *Context) longestFirst(names []string) []int {
	lens := make(map[string]int, len(names))
	repeat := make([]bool, len(names))
	for i, name := range names {
		if _, ok := lens[name]; ok {
			repeat[i] = true
		} else {
			lens[name] = c.records(name)
		}
	}
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if repeat[a] != repeat[b] {
			if repeat[b] {
				return -1
			}
			return 1
		}
		return cmp.Compare(lens[names[b]], lens[names[a]])
	})
	return order
}

// records returns the record count of the named workload's trace: the
// trace's length when the Context holds it, otherwise tracegen's counting
// pass, which sizes the trace at a small fraction of the cost of
// generating it. It returns -1 when neither can tell; the row that reads
// the trace then reports why.
func (c *Context) records(name string) int {
	if t, ok := c.traces.Load(name); ok {
		return t.Len()
	}
	p, err := workloads.BuildProgram(name, c.Scale)
	if err != nil {
		return -1
	}
	r, err := tracegen.NewReader(p, tracegen.Options{Seed: c.Seed})
	if err != nil {
		return -1
	}
	defer r.Close()
	return r.Len()
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

// simulateCells returns every config's result over every named
// workload's trace: out[i][j] is cfgs[j] over names[i]. Each (workload,
// config) cell is its own Simulate call. A resident trace is read in
// place, so a fused pass over a workload's configs would share no decode,
// while cells keep every worker busy to the end: the longest trace's
// configs, which would otherwise run on one worker as a row, spread over
// all of them (eachWorkload starts them first). The memo still simulates
// each (trace, config) pair once.
func (c *Context) simulateCells(names []string, cfgs []core.Config) ([][]core.Result, error) {
	k := len(cfgs)
	cells := make([]core.Result, len(names)*k)
	err := c.eachWorkload(repeatEach(names, k), func(rc *Context, i int) error {
		var err error
		if cells[i], err = rc.Simulate(names[i/k], cfgs[i%k]); err != nil {
			return fmt.Errorf("%s: %w", names[i/k], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]core.Result, len(names))
	for i := range out {
		out[i] = cells[i*k : (i+1)*k : (i+1)*k]
	}
	return out, nil
}

// amatTable runs the given configurations over the given workloads
// (simulateCells) and returns a workloads × configs table of metric (the
// shape of most figures).
func amatTable(ctx *Context, title string, names []string, configs []namedConfig, metric func(core.Result) float64) (*metrics.Table, error) {
	results, err := ctx.simulateCells(names, configsOf(configs))
	if err != nil {
		return nil, err
	}
	cols := make([]int, len(configs))
	for i := range cols {
		cols[i] = i
	}
	return cellTable(title, names, configs, results, cols, metric), nil
}

// cellTable returns the workloads × configs[cols] table of metric over
// results, simulateCells' answer for names × configs.
func cellTable(title string, names []string, configs []namedConfig, results [][]core.Result, cols []int, metric func(core.Result) float64) *metrics.Table {
	labels := make([]string, len(cols))
	for i, c := range cols {
		labels[i] = configs[c].label
	}
	tbl := metrics.NewTable(title, "benchmark", labels...)
	for i, name := range names {
		row := make([]float64, len(cols))
		for j, c := range cols {
			row[j] = metric(results[i][c])
		}
		tbl.AddRow(name, row...)
	}
	return tbl
}

type namedConfig struct {
	label string
	cfg   core.Config
}

func configsOf(configs []namedConfig) []core.Config {
	cfgs := make([]core.Config, len(configs))
	for i, c := range configs {
		cfgs[i] = c.cfg
	}
	return cfgs
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
