// Package tracegen executes a loopir program and emits the tagged memory
// reference trace, reproducing the paper's source-level tracing scheme
// (§3.1): every array reference in the source becomes a trace entry carrying
// the address, direction, the temporal/spatial bits resolved by the
// locality analysis, and a time gap drawn from the fig. 4b distribution at
// generation time (so repeated simulations of one trace are identical).
//
// The program is first compiled to a small closure tree with loop variables
// held in integer slots, which keeps generation fast enough for
// multi-million-reference traces.
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
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	tags, err := locality.Analyze(p)
	if err != nil {
		return nil, err
	}
	return GenerateTagged(p, tags, opts)
}

// GenerateTagged runs the program with an explicit tagging (useful to
// compare the analyser's tags against hand tags, or to strip tags at the
// source level).
func GenerateTagged(p *loopir.Program, tags locality.Tagging, opts Options) (*trace.Trace, error) {
	if err := p.Finalize(); err != nil {
		return nil, err
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
		out:   &trace.Trace{Name: p.Name},
		slots: map[string]int{},
	}
	seq, err := g.compileBody(p.Body)
	if err != nil {
		return nil, err
	}
	bound := g.compileCount(p.Body)
	g.env = make([]int, len(g.slots))
	if n, err := bound(g); err == nil && n <= g.max {
		g.out.Records = make([]trace.Record, 0, n)
	}
	if err := seq(g); err != nil {
		return nil, err
	}
	return g.out, nil
}

// generator is the execution context.
type generator struct {
	prog  *loopir.Program
	tags  locality.Tagging
	rng   *timing.RNG
	gaps  *timing.GapModel
	max   int
	out   *trace.Trace
	slots map[string]int // loop variable -> env slot
	env   []int
	first bool
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

// countFn evaluates an upper bound on the records a compiled statement
// list emits from the current environment.
type countFn func(*generator) (int, error)

// errBoundTooLarge stops the counting pass once the bound passes
// MaxRecords: generation then grows Records as it goes and reports the
// overflow itself, so a mis-sized workload allocates nothing up front.
var errBoundTooLarge = errors.New("tracegen: record bound exceeds MaxRecords")

// compileCount compiles the counting pass that sizes Records before
// generation. It walks the loop nest like the generator but counts each
// access and prefetch once per iteration instead of emitting it, and
// computes innermost loops in closed form, so it costs a small fraction of
// the generation it sizes. The bound is exact except for non-faulting
// prefetches that turn out to be dropped. Any error it meets (a loop bound
// reading a data array out of range, or errBoundTooLarge) makes the caller
// fall back to growing Records, so generation reports its errors exactly
// as it would without the pass.
func (g *generator) compileCount(body []loopir.Stmt) countFn {
	static := countStatic(body)
	var loops []countFn
	for _, st := range body {
		if l, ok := st.(*loopir.Loop); ok {
			loops = append(loops, g.compileLoopCount(l))
		}
	}
	return func(g *generator) (int, error) {
		n := static
		for _, l := range loops {
			c, err := l(g)
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

// compileLoopCount bounds one loop: an innermost loop as trips times its
// statements, any other by running its iterations over the counting body.
func (g *generator) compileLoopCount(l *loopir.Loop) countFn {
	lo := g.compileSub(l.Lower)
	hi := g.compileSub(l.Upper)
	slot := g.slot(l.Var)
	step := l.Step
	if step == 0 {
		step = 1
	}
	body := g.compileCount(l.Body)
	per, innermost := countStatic(l.Body), !containsLoop(l.Body)
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
		if innermost {
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

// countStatic counts the accesses and prefetches directly in body: the
// records one execution of it emits, not counting nested loops.
func countStatic(body []loopir.Stmt) int {
	n := 0
	for _, st := range body {
		switch st.(type) {
		case *loopir.Access, *loopir.Prefetch:
			n++
		}
	}
	return n
}

func containsLoop(body []loopir.Stmt) bool {
	for _, st := range body {
		if _, ok := st.(*loopir.Loop); ok {
			return true
		}
	}
	return false
}

// compilePrefetch compiles a §4.4 software-prefetch instruction. Unlike a
// demand access, an out-of-range address drops the prefetch silently
// (non-faulting semantics) instead of aborting generation.
func (g *generator) compilePrefetch(pf *loopir.Prefetch) (action, error) {
	arr := g.prog.Arrays[pf.Array]
	strides := arr.Strides()
	dims := arr.Dims
	subs := make([]valueFn, len(pf.Index))
	for i, s := range pf.Index {
		subs[i] = g.compileSub(s)
	}
	base := arr.Base
	elem := arr.ElemSize
	return func(g *generator) error {
		idx := 0
		for d, fn := range subs {
			v, err := fn(g)
			if err != nil {
				return err
			}
			if v < 0 || v >= dims[d] {
				return nil // non-faulting: drop the prefetch
			}
			idx += v * strides[d]
		}
		if len(g.out.Records) >= g.max {
			return fmt.Errorf("tracegen: trace exceeds MaxRecords=%d (workload mis-sized?)", g.max)
		}
		gap := uint8(g.gaps.Sample(g.rng))
		if !g.first {
			g.first = true
			gap = 0
		}
		g.out.Append(trace.Record{
			Addr:             base + uint64(idx*elem),
			Gap:              gap,
			Size:             uint8(elem),
			SoftwarePrefetch: true,
		})
		return nil
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
		if len(g.out.Records) >= g.max {
			return fmt.Errorf("tracegen: trace exceeds MaxRecords=%d (workload mis-sized?)", g.max)
		}
		gap := uint8(g.gaps.Sample(g.rng))
		if !g.first {
			g.first = true
			gap = 0
		}
		g.out.Append(trace.Record{
			Addr:        base + uint64(idx*elem),
			RefID:       refID,
			Gap:         gap,
			Size:        uint8(elem),
			Write:       write,
			Temporal:    t.Temporal,
			Spatial:     t.Spatial,
			VirtualHint: vlHint,
		})
		return nil
	}, nil
}
