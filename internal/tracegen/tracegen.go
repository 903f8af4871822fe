// Package tracegen executes a loopir program and emits the tagged memory
// reference trace, reproducing the paper's source-level tracing scheme
// (§3.1): every array reference in the source becomes a trace entry carrying
// the address, direction, the temporal/spatial bits resolved by the
// locality analysis, and a time gap drawn from the fig. 4b distribution at
// generation time (so repeated simulations of one trace are identical).
//
// The program is first compiled to a small closure tree with loop variables
// held in integer slots, which keeps generation fast enough for
// multi-million-reference traces. Generate materialises the trace;
// NewReader streams the same records batch by batch.
package tracegen

import (
	"errors"
	"fmt"

	"softcache/internal/locality"
	"softcache/internal/loopir"
	"softcache/internal/timing"
	"softcache/internal/trace"
)

// Options configure trace generation.
type Options struct {
	// Seed drives the gap sampler; the same seed yields the same trace.
	Seed uint64
	// Gaps is the inter-reference time model; nil uses the paper's
	// fig. 4b distribution.
	Gaps *timing.GapModel
	// MaxRecords aborts generation beyond this many records, guarding
	// against mis-sized workloads; 0 means the default of 64M.
	MaxRecords int
}

const defaultMaxRecords = 64 << 20

// Generate analyses the program (unless a tagging is supplied) and runs it.
func Generate(p *loopir.Program, opts Options) (*trace.Trace, error) {
	tags, err := analyze(p)
	if err != nil {
		return nil, err
	}
	return GenerateTagged(p, tags, opts)
}

// GenerateTagged runs the program with an explicit tagging (useful to
// compare the analyser's tags against hand tags, or to strip tags at the
// source level).
func GenerateTagged(p *loopir.Program, tags locality.Tagging, opts Options) (*trace.Trace, error) {
	g, run, err := newGenerator(p, tags, opts)
	if err != nil {
		return nil, err
	}
	if g.count >= 0 {
		g.recs = make([]trace.Record, 0, g.count)
	}
	if err := run(g); err != nil {
		return nil, err
	}
	return &trace.Trace{Name: p.Name, Records: g.recs}, nil
}

func analyze(p *loopir.Program) (locality.Tagging, error) {
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	return locality.Analyze(p)
}

// newGenerator compiles p into a generator and the action that runs it,
// then runs the counting pass: g.count is the exact record count, or -1
// when the pass failed or passed MaxRecords (generation then reports the
// problem itself, exactly as it would without the pass).
func newGenerator(p *loopir.Program, tags locality.Tagging, opts Options) (*generator, action, error) {
	if err := p.Finalize(); err != nil {
		return nil, nil, err
	}
	if opts.Gaps == nil {
		opts.Gaps = timing.PaperGapModel()
	}
	if opts.MaxRecords == 0 {
		opts.MaxRecords = defaultMaxRecords
	}
	g := &generator{
		prog:  p,
		tags:  tags,
		rng:   timing.NewRNG(opts.Seed),
		gaps:  opts.Gaps,
		max:   opts.MaxRecords,
		slots: map[string]int{},
	}
	run, err := g.compileBody(p.Body)
	if err != nil {
		return nil, nil, err
	}
	count := g.compileCount(p.Body)
	g.env = make([]int, len(g.slots))
	g.count = -1
	if n, err := count(g); err == nil {
		g.count = n
	}
	return g, run, nil
}

// generator is the execution context.
type generator struct {
	prog  *loopir.Program
	tags  locality.Tagging
	rng   *timing.RNG
	gaps  *timing.GapModel
	max   int
	count int            // records the program emits (counting pass); -1 if unknown
	slots map[string]int // loop variable -> env slot
	env   []int
	n     int            // records emitted so far
	recs  []trace.Record // emit's destination: the whole trace, or a Reader's batch
	// flush, when set, is called by emit when recs is full: a Reader hands
	// the batch to its consumer and gets an empty one back.
	flush func() error
}

// emit draws r's gap and appends r to recs. It is the one record path of
// both Generate and Reader, so the two yield identical records and fail
// at the same record when the trace outgrows MaxRecords.
func (g *generator) emit(r trace.Record) error {
	if g.n >= g.max {
		return fmt.Errorf("tracegen: trace exceeds MaxRecords=%d (workload mis-sized?)", g.max)
	}
	if g.flush != nil && len(g.recs) == cap(g.recs) {
		if err := g.flush(); err != nil {
			return err
		}
	}
	r.Gap = uint8(g.gaps.Sample(g.rng))
	if g.n == 0 {
		r.Gap = 0
	}
	g.recs = append(g.recs, r)
	g.n++
	return nil
}

// action is a compiled statement: it executes against the generator state.
type action func(*generator) error

// valueFn evaluates a compiled subscript against the environment.
type valueFn func(*generator) (int, error)

func (g *generator) slot(v string) int {
	if s, ok := g.slots[v]; ok {
		return s
	}
	s := len(g.slots)
	g.slots[v] = s
	return s
}

// compileSub turns a subscript into an evaluator. Unknown variables were
// rejected by Finalize, so slot resolution cannot fail here.
func (g *generator) compileSub(s loopir.Subscript) valueFn {
	type term struct{ slot, coef int }
	terms := make([]term, 0, len(s.Terms))
	for _, t := range s.Terms {
		terms = append(terms, term{slot: g.slot(t.Var), coef: t.Coef})
	}
	c := s.Const
	if s.Ind == nil {
		return func(g *generator) (int, error) {
			v := c
			for _, t := range terms {
				v += t.coef * g.env[t.slot]
			}
			return v, nil
		}
	}
	data := g.prog.Data[s.Ind.Array]
	name := s.Ind.Array
	idx := g.compileSub(s.Ind.Sub)
	return func(g *generator) (int, error) {
		v := c
		for _, t := range terms {
			v += t.coef * g.env[t.slot]
		}
		i, err := idx(g)
		if err != nil {
			return 0, err
		}
		if i < 0 || i >= len(data) {
			return 0, fmt.Errorf("tracegen: index %d out of range for data array %s (len %d)", i, name, len(data))
		}
		return v + data[i], nil
	}
}

func (g *generator) compileBody(body []loopir.Stmt) (action, error) {
	actions := make([]action, 0, len(body))
	for _, st := range body {
		switch s := st.(type) {
		case *loopir.Loop:
			a, err := g.compileLoop(s)
			if err != nil {
				return nil, err
			}
			actions = append(actions, a)
		case *loopir.Access:
			a, err := g.compileAccess(s)
			if err != nil {
				return nil, err
			}
			actions = append(actions, a)
		case *loopir.Call:
			// Opaque call: contributes no references. (Its cost shows up
			// only through the time-gap model, as in the paper.)
		case *loopir.Prefetch:
			a, err := g.compilePrefetch(s)
			if err != nil {
				return nil, err
			}
			actions = append(actions, a)
		default:
			return nil, fmt.Errorf("tracegen: unknown statement %T", st)
		}
	}
	return func(g *generator) error {
		for _, a := range actions {
			if err := a(g); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func (g *generator) compileLoop(l *loopir.Loop) (action, error) {
	lo := g.compileSub(l.Lower)
	hi := g.compileSub(l.Upper)
	slot := g.slot(l.Var)
	step := l.Step
	if step == 0 {
		step = 1
	}
	body, err := g.compileBody(l.Body)
	if err != nil {
		return nil, err
	}
	return func(g *generator) error {
		from, err := lo(g)
		if err != nil {
			return err
		}
		to, err := hi(g)
		if err != nil {
			return err
		}
		for i := from; i <= to; i += step {
			g.env[slot] = i
			if err := body(g); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// countFn evaluates the number of records a compiled statement list emits
// from the current environment.
type countFn func(*generator) (int, error)

// errBoundTooLarge stops the counting pass once the count passes
// MaxRecords: generation then grows Records as it goes and reports the
// overflow itself, so a mis-sized workload allocates nothing up front.
var errBoundTooLarge = errors.New("tracegen: record bound exceeds MaxRecords")

// compileCount compiles the counting pass that sizes the trace before
// generation. It walks the loop nest like the generator but counts each
// access once per iteration instead of emitting it, and computes
// prefetch-free innermost loops in closed form, so it costs a small
// fraction of the generation it sizes. Prefetches are counted only when
// their target is in range, exactly as the generator drops them, so the
// count is exact. Any error it meets (a loop bound or prefetch subscript
// reading a data array out of range, or errBoundTooLarge) makes the
// caller fall back to growing Records, so generation reports its errors
// exactly as it would without the pass.
func (g *generator) compileCount(body []loopir.Stmt) countFn {
	static := countAccesses(body)
	var parts []countFn
	for _, st := range body {
		switch s := st.(type) {
		case *loopir.Loop:
			parts = append(parts, g.compileLoopCount(s))
		case *loopir.Prefetch:
			target := g.compilePrefetchTarget(s)
			parts = append(parts, func(g *generator) (int, error) {
				if _, ok, err := target(g); !ok || err != nil {
					return 0, err
				}
				return 1, nil
			})
		}
	}
	return func(g *generator) (int, error) {
		n := static
		for _, part := range parts {
			c, err := part(g)
			if err != nil {
				return 0, err
			}
			if n += c; n > g.max {
				return 0, errBoundTooLarge
			}
		}
		return n, nil
	}
}

// compileLoopCount counts one loop: an innermost loop without prefetches
// as trips times its accesses, any other by running its iterations over
// the counting body.
func (g *generator) compileLoopCount(l *loopir.Loop) countFn {
	lo := g.compileSub(l.Lower)
	hi := g.compileSub(l.Upper)
	slot := g.slot(l.Var)
	step := l.Step
	if step == 0 {
		step = 1
	}
	body := g.compileCount(l.Body)
	per := countAccesses(l.Body)
	closed := !containsLoopOrPrefetch(l.Body)
	return func(g *generator) (int, error) {
		from, err := lo(g)
		if err != nil {
			return 0, err
		}
		to, err := hi(g)
		if err != nil {
			return 0, err
		}
		if from > to {
			return 0, nil
		}
		if closed {
			trips := (to-from)/step + 1
			if per > 0 && trips > g.max/per {
				return 0, errBoundTooLarge
			}
			return trips * per, nil
		}
		n := 0
		for i := from; i <= to; i += step {
			g.env[slot] = i
			c, err := body(g)
			if err != nil {
				return 0, err
			}
			if n += c; n > g.max {
				return 0, errBoundTooLarge
			}
		}
		return n, nil
	}
}

// countAccesses counts the accesses directly in body: the demand records
// one execution of it emits, not counting nested loops.
func countAccesses(body []loopir.Stmt) int {
	n := 0
	for _, st := range body {
		if _, ok := st.(*loopir.Access); ok {
			n++
		}
	}
	return n
}

func containsLoopOrPrefetch(body []loopir.Stmt) bool {
	for _, st := range body {
		switch st.(type) {
		case *loopir.Loop, *loopir.Prefetch:
			return true
		}
	}
	return false
}

// compilePrefetchTarget compiles the element index a prefetch targets. ok
// is false when a subscript falls outside its dimension: the prefetch is
// then dropped (non-faulting semantics), by the generator and the counting
// pass alike.
func (g *generator) compilePrefetchTarget(pf *loopir.Prefetch) func(*generator) (idx int, ok bool, err error) {
	strides := g.prog.Arrays[pf.Array].Strides()
	dims := g.prog.Arrays[pf.Array].Dims
	subs := make([]valueFn, len(pf.Index))
	for i, s := range pf.Index {
		subs[i] = g.compileSub(s)
	}
	return func(g *generator) (int, bool, error) {
		idx := 0
		for d, fn := range subs {
			v, err := fn(g)
			if err != nil {
				return 0, false, err
			}
			if v < 0 || v >= dims[d] {
				return 0, false, nil
			}
			idx += v * strides[d]
		}
		return idx, true, nil
	}
}

// compilePrefetch compiles a §4.4 software-prefetch instruction. Unlike a
// demand access, an out-of-range address drops the prefetch silently
// (non-faulting semantics) instead of aborting generation.
func (g *generator) compilePrefetch(pf *loopir.Prefetch) (action, error) {
	target := g.compilePrefetchTarget(pf)
	base := g.prog.Arrays[pf.Array].Base
	elem := g.prog.Arrays[pf.Array].ElemSize
	return func(g *generator) error {
		idx, ok, err := target(g)
		if !ok || err != nil {
			return err
		}
		return g.emit(trace.Record{
			Addr:             base + uint64(idx*elem),
			Size:             uint8(elem),
			SoftwarePrefetch: true,
		})
	}, nil
}

func (g *generator) compileAccess(a *loopir.Access) (action, error) {
	arr := g.prog.Arrays[a.Array]
	strides := arr.Strides()
	dims := arr.Dims
	subs := make([]valueFn, len(a.Index))
	for i, s := range a.Index {
		subs[i] = g.compileSub(s)
	}
	t := g.tags[a.ID]
	base := arr.Base
	elem := arr.ElemSize
	size := arr.Size()
	name := arr.Name
	refID := uint32(a.ID)
	write := a.Write
	var vlHint uint8
	if t.Spatial {
		vlHint = trace.EncodeVirtualHint(t.VirtualBytes)
	}
	return func(g *generator) error {
		idx := 0
		for d, fn := range subs {
			v, err := fn(g)
			if err != nil {
				return err
			}
			if v < 0 || v >= dims[d] {
				return fmt.Errorf("tracegen: subscript %d out of range [0,%d) in dim %d of %s (ref %d)",
					v, dims[d], d, name, refID)
			}
			idx += v * strides[d]
		}
		if idx < 0 || idx >= size {
			return fmt.Errorf("tracegen: linear index %d out of range for %s", idx, name)
		}
		return g.emit(trace.Record{
			Addr:        base + uint64(idx*elem),
			RefID:       refID,
			Size:        uint8(elem),
			Write:       write,
			Temporal:    t.Temporal,
			Spatial:     t.Spatial,
			VirtualHint: vlHint,
		})
	}, nil
}
