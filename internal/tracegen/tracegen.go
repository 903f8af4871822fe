// Package tracegen executes a loopir program and emits the tagged memory
// reference trace, reproducing the paper's source-level tracing scheme
// (§3.1): every array reference in the source becomes a trace entry carrying
// the address, direction, the temporal/spatial bits resolved by the
// locality analysis, and a time gap drawn from the fig. 4b distribution at
// generation time (so repeated simulations of one trace are identical).
//
// The program is first compiled, with loop variables held in integer
// slots. An innermost loop whose accesses and prefetches all have affine
// subscripts (calls may sit among them) takes a strided form: at loop
// entry each subscript is evaluated once, each reference then moves by a
// fixed element delta per iteration, and the iterations at which it stays
// inside its array follow in closed form, so no record re-evaluates a
// subscript. The iterations at which every reference is in range are
// written a chunk at a time, whole iterations straight into the
// destination batch. Every other loop, one with an indirect subscript or
// a nested loop, walks its body one iteration at a time over a closure
// per statement, emitting one record at a time. Both follow one set of
// record and gap rules (record n's gap is gap n of the (model, seed) gap
// sequence, the first record's gap is 0, a full batch is flushed before
// the next record, the record past MaxRecords fails), so chunked and
// per-record generation yield the same records and fail at the same
// record. Gap n of the sequence is the n-th Sample of timing.NewRNG(seed)
// whatever the program, so generation reads it from the process's shared
// gap stream (timing.Gaps) instead of drawing it again for every trace.
// The counting pass, which sizes a trace exactly, is compiled with the
// program but runs only when the count is read: Generate runs it to
// allocate the records once, a Reader on its first Len. Generate
// materialises the trace; NewReader streams the same records batch by
// batch.
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
	if n := g.records(); n >= 0 {
		g.recs = make([]trace.Record, 0, n)
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

// newGenerator compiles p into a generator, with its counting pass, and
// the action that runs it.
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
		gaps:  opts.Gaps.Gaps(opts.Seed),
		max:   opts.MaxRecords,
		slots: map[string]int{},
	}
	run, err := g.compileBody(p.Body)
	if err != nil {
		return nil, nil, err
	}
	g.count = g.compileCount(p.Body)
	g.env = make([]int, len(g.slots))
	return g, run, nil
}

// generator is the execution context.
type generator struct {
	prog  *loopir.Program
	tags  locality.Tagging
	gaps  timing.Gaps
	run   []uint8 // the gap run being read, from gaps.Next
	at    int     // the next gap's index in run
	max   int
	count countFn        // the counting pass (records)
	slots map[string]int // loop variable -> env slot
	env   []int
	n     int            // records emitted so far
	recs  []trace.Record // emit's destination: the whole trace, or a Reader's batch
	// flush, when set, is called by emit when recs is full: a Reader hands
	// the batch to its consumer and gets an empty one back.
	flush func() error
}

// records runs the counting pass and returns the exact record count, or
// -1 when the pass failed or passed MaxRecords (generation then reports
// the problem itself, exactly as it would without the pass). The pass
// runs on an environment of its own, so it may run before, during or
// after generation without disturbing it.
func (g *generator) records() int {
	n, err := g.count(&generator{max: g.max, env: make([]int, len(g.env))})
	if err != nil {
		return -1
	}
	return n
}

// emit appends r's record for element idx to recs and reads its gap, by
// the record and gap rules of the package comment; emitChunk writes whole
// iterations by the same rules. It writes the record into its slot
// before setting the gap there, rather than building it aside and
// copying it in.
func (g *generator) emit(r *ref, idx int) error {
	if g.n >= g.max {
		return fmt.Errorf("tracegen: trace exceeds MaxRecords=%d (workload mis-sized?)", g.max)
	}
	if g.flush != nil && len(g.recs) == cap(g.recs) {
		if err := g.flush(); err != nil {
			return err
		}
	}
	g.recs = append(g.recs, r.rec)
	rec := &g.recs[len(g.recs)-1]
	rec.Addr = r.base + uint64(idx*r.elem)
	if g.at == len(g.run) {
		g.run, g.at = g.gaps.Next(), 0
	}
	gap := g.run[g.at]
	g.at++
	if g.n == 0 {
		gap = 0
	}
	rec.Gap = gap
	g.n++
	return nil
}

// emitChunk writes iters whole iterations of a strided loop whose
// references are all in range straight into recs, which must have room
// for them, and advances each reference past them. The gaps follow in a
// second pass, a run at a time (emit reads one gap inline: the per-record
// walk is slower through a shared helper).
func (g *generator) emitChunk(refs []stridedRef, iters int) {
	start := len(g.recs)
	out := g.recs[start : start+iters*len(refs)]
	o := 0
	for k := 0; k < iters; k++ {
		for j := range refs {
			r := &refs[j]
			rec := &out[o]
			*rec = r.rec
			rec.Addr = r.base + uint64(r.idx*r.elem)
			r.idx += r.delta
			o++
		}
	}
	for rest := out; len(rest) > 0; {
		if g.at == len(g.run) {
			g.run, g.at = g.gaps.Next(), 0
		}
		gaps := g.run[g.at:min(len(g.run), g.at+len(rest))]
		seg := rest[:len(gaps)]
		for i := range seg {
			seg[i].Gap = gaps[i]
		}
		g.at += len(gaps)
		rest = rest[len(gaps):]
	}
	if g.n == 0 && len(out) > 0 {
		out[0].Gap = 0
	}
	g.recs = g.recs[:start+len(out)]
	g.n += len(out)
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
		case *loopir.Access, *loopir.Prefetch:
			r, _ := g.compileRef(s)
			actions = append(actions, r.walk)
		case *loopir.Call:
			// Opaque call: contributes no references. (Its cost shows up
			// only through the time-gap model, as in the paper.)
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

// bounds is a compiled loop header.
type bounds struct {
	lo, hi valueFn
	slot   int
	step   int
}

func (g *generator) compileBounds(l *loopir.Loop) bounds {
	step := l.Step
	if step == 0 {
		step = 1
	}
	return bounds{lo: g.compileSub(l.Lower), hi: g.compileSub(l.Upper), slot: g.slot(l.Var), step: step}
}

// enter evaluates the bounds and returns the loop variable's first value
// and the number of iterations.
func (b *bounds) enter(g *generator) (from, n int, err error) {
	if from, err = b.lo(g); err != nil {
		return 0, 0, err
	}
	to, err := b.hi(g)
	if err != nil || from > to {
		return 0, 0, err
	}
	return from, (to-from)/b.step + 1, nil
}

// compileLoop compiles an innermost loop whose subscripts are all affine
// to its strided form, and any other loop to a walk over its compiled
// body, one iteration at a time.
func (g *generator) compileLoop(l *loopir.Loop) (action, error) {
	b := g.compileBounds(l)
	if refs, ok := g.compileStrided(l, b.step); ok {
		return b.strided(refs), nil
	}
	body, err := g.compileBody(l.Body)
	if err != nil {
		return nil, err
	}
	return func(g *generator) error {
		from, n, err := b.enter(g)
		if err != nil {
			return err
		}
		for k := 0; k < n; k++ {
			g.env[b.slot] = from + k*b.step
			if err := body(g); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// strided is the action of a loop compiled to its strided form. At loop
// entry it evaluates every subscript once and finds, in closed form, the
// first iteration at which a demand access leaves its array. It emits
// every iteration before that one, then that iteration's references up
// to the failing access, in body order, and fails with the walk's error.
// The loop variable ends at the last iteration, as on the walk.
func (b *bounds) strided(refs []stridedRef) action {
	return func(g *generator) error {
		from, n, err := b.enter(g)
		if err != nil || n == 0 {
			return err
		}
		g.env[b.slot] = from
		stop, failing := n, 0
		for j := range refs {
			r := &refs[j]
			r.enter(g, n)
			if f := r.failsAt(); !r.rec.SoftwarePrefetch && f < stop {
				stop, failing = f, j
			}
		}
		if err := g.emitIterations(stop, refs); err != nil {
			return err
		}
		if stop == n {
			g.env[b.slot] = from + (n-1)*b.step
			return nil
		}
		g.env[b.slot] = from + stop*b.step
		if err := g.emitIteration(stop, refs[:failing]); err != nil {
			return err
		}
		return refs[failing].walk(g)
	}
}

// emitIterations emits iterations [0,stop) of a strided loop. The
// iterations at which every reference, prefetches included, is in range
// are written a chunk at a time, each chunk as many whole iterations as
// recs has room for; the others, and an iteration that does not fit,
// take emitIteration's record-at-a-time path, which flushes or fails at
// the right record.
func (g *generator) emitIterations(stop int, refs []stridedRef) error {
	if len(refs) == 0 {
		return nil
	}
	lo, hi := 0, stop
	for j := range refs {
		lo, hi = max(lo, refs[j].lo), min(hi, refs[j].hi)
	}
	for k := 0; k < stop; {
		if k >= lo && k < hi {
			// Room before emit would flush the batch or fail at MaxRecords.
			room := min(cap(g.recs)-len(g.recs), g.max-g.n)
			if iters := min(room/len(refs), hi-k); iters > 0 {
				g.emitChunk(refs, iters)
				k += iters
				continue
			}
		}
		if err := g.emitIteration(k, refs); err != nil {
			return err
		}
		k++
	}
	return nil
}

// emitIteration emits iteration k of a strided loop's references and
// advances each to the next iteration. A prefetch emits only inside its
// in-range iterations.
func (g *generator) emitIteration(k int, refs []stridedRef) error {
	for j := range refs {
		r := &refs[j]
		if r.lo <= k && k < r.hi {
			if err := g.emit(r.ref, r.idx); err != nil {
				return err
			}
		}
		r.idx += r.delta
	}
	return nil
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
// access once per iteration instead of emitting it, and counts innermost
// loops in closed form, so it costs a small fraction of the generation it
// sizes. Prefetches are counted only when their target is in range,
// exactly as the generator drops them, so the count is exact. Any error
// it meets (a loop bound or prefetch subscript reading a data array out
// of range, or errBoundTooLarge) makes the caller fall back to growing
// Records, so generation reports its errors exactly as it would without
// the pass.
func (g *generator) compileCount(body []loopir.Stmt) countFn {
	static := countAccesses(body)
	var parts []countFn
	for _, st := range body {
		switch s := st.(type) {
		case *loopir.Loop:
			parts = append(parts, g.compileLoopCount(s))
		case *loopir.Prefetch:
			r, _ := g.compileRef(s)
			parts = append(parts, func(g *generator) (int, error) {
				if _, ok, err := r.index(g); !ok || err != nil {
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

// compileLoopCount counts one loop. An innermost loop without prefetches,
// or one in strided form, counts in closed form: trips times its
// accesses, plus the in-range iterations of each prefetch. Any other loop
// runs its iterations over the counting body.
func (g *generator) compileLoopCount(l *loopir.Loop) countFn {
	b := g.compileBounds(l)
	body := g.compileCount(l.Body)
	per := countAccesses(l.Body)
	refs, closed := g.compileStrided(l, b.step)
	if !closed {
		closed = !containsLoopOrPrefetch(l.Body)
	}
	return func(g *generator) (int, error) {
		from, n, err := b.enter(g)
		if err != nil || n == 0 {
			return 0, err
		}
		if closed {
			if per > 0 && n > g.max/per {
				return 0, errBoundTooLarge
			}
			c := n * per
			g.env[b.slot] = from
			for j := range refs {
				if r := &refs[j]; r.rec.SoftwarePrefetch {
					r.enter(g, n)
					c += r.hi - r.lo
				}
			}
			return c, nil
		}
		c := 0
		for k := 0; k < n; k++ {
			g.env[b.slot] = from + k*b.step
			m, err := body(g)
			if err != nil {
				return 0, err
			}
			if c += m; c > g.max {
				return 0, errBoundTooLarge
			}
		}
		return c, nil
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

// ref is a compiled array reference, a demand access or a §4.4 software
// prefetch: its subscripts, its array's geometry, and the record it
// emits, less the address.
type ref struct {
	subs    []valueFn
	dims    []int
	strides []int
	base    uint64
	elem    int
	name    string
	rec     trace.Record
}

// compileRef compiles an access or prefetch statement and returns its
// subscripts with it.
func (g *generator) compileRef(st loopir.Stmt) (*ref, []loopir.Subscript) {
	var array string
	var index []loopir.Subscript
	var rec trace.Record
	switch s := st.(type) {
	case *loopir.Access:
		array, index = s.Array, s.Index
		t := g.tags[s.ID]
		rec = trace.Record{RefID: uint32(s.ID), Write: s.Write, Temporal: t.Temporal, Spatial: t.Spatial}
		if t.Spatial {
			rec.VirtualHint = trace.EncodeVirtualHint(t.VirtualBytes)
		}
	case *loopir.Prefetch:
		array, index = s.Array, s.Index
		rec = trace.Record{SoftwarePrefetch: true}
	default:
		panic(fmt.Sprintf("tracegen: %T is not a reference", st))
	}
	arr := g.prog.Arrays[array]
	rec.Size = uint8(arr.ElemSize)
	r := &ref{dims: arr.Dims, strides: arr.Strides(), base: arr.Base, elem: arr.ElemSize, name: arr.Name, rec: rec}
	for _, s := range index {
		r.subs = append(r.subs, g.compileSub(s))
	}
	return r, index
}

// index evaluates r's element index. ok is false when a subscript falls
// outside its dimension.
func (r *ref) index(g *generator) (idx int, ok bool, err error) {
	for d, sub := range r.subs {
		v, err := sub(g)
		if err != nil {
			return 0, false, err
		}
		if v < 0 || v >= r.dims[d] {
			return 0, false, nil
		}
		idx += v * r.strides[d]
	}
	return idx, true, nil
}

// walk is r's action on the closure walk: it evaluates r's subscripts and
// emits its record. A demand access out of range fails generation; a
// prefetch out of range is dropped silently (non-faulting semantics).
func (r *ref) walk(g *generator) error {
	idx := 0
	for d, sub := range r.subs {
		v, err := sub(g)
		if err != nil {
			return err
		}
		if v < 0 || v >= r.dims[d] {
			if r.rec.SoftwarePrefetch {
				return nil
			}
			return fmt.Errorf("tracegen: subscript %d out of range [0,%d) in dim %d of %s (ref %d)",
				v, r.dims[d], d, r.name, r.rec.RefID)
		}
		idx += v * r.strides[d]
	}
	return g.emit(r, idx)
}

// stridedRef is a reference of a loop in strided form: every subscript is
// affine, so across the loop's iterations each moves by a fixed step.
type stridedRef struct {
	*ref
	steps []int // each subscript's change per iteration
	// Set by enter for the current loop entry:
	idx   int // element index at the current iteration
	delta int // its change per iteration
	lo    int // [lo,hi): the iterations at which every subscript
	hi    int // is in range
}

// compileStrided compiles the references of l in body order, in strided
// form. ok is false unless l is innermost and every subscript of its
// accesses and prefetches is affine: a loop with an indirect subscript or
// a nested loop stays on the walk.
func (g *generator) compileStrided(l *loopir.Loop, step int) (refs []stridedRef, ok bool) {
	for _, st := range l.Body {
		switch st.(type) {
		case *loopir.Call:
			continue
		case *loopir.Access, *loopir.Prefetch:
		default:
			return nil, false
		}
		r, index := g.compileRef(st)
		sr := stridedRef{ref: r}
		for _, sub := range index {
			if sub.Ind != nil {
				return nil, false
			}
			coef := 0
			for _, t := range sub.Terms {
				if t.Var == l.Var {
					coef += t.Coef
				}
			}
			sr.steps = append(sr.steps, coef*step)
		}
		refs = append(refs, sr)
	}
	return refs, true
}

// enter starts r on a loop entry of n > 0 iterations, with the loop
// variable at its first value: it evaluates each subscript once and sets
// r's index, delta and in-range iterations.
func (r *stridedRef) enter(g *generator, n int) {
	r.idx, r.delta, r.lo, r.hi = 0, 0, 0, n
	for d, sub := range r.subs {
		v, _ := sub(g) // affine: evaluation cannot fail
		lo, hi := inRange(v, r.steps[d], r.dims[d], n)
		r.lo, r.hi = max(r.lo, lo), min(r.hi, hi)
		r.idx += v * r.strides[d]
		r.delta += r.steps[d] * r.strides[d]
	}
	r.hi = max(r.hi, r.lo)
}

// failsAt is the first iteration at which r is out of range, or n when
// it never is: a demand access fails there, a prefetch is dropped.
func (r *stridedRef) failsAt() int {
	if r.lo > 0 {
		return 0
	}
	return r.hi
}

// inRange returns the iterations k of [0,n) at which v + k*s lies in
// [0,dim), as [lo,hi), empty when hi <= lo.
func inRange(v, s, dim, n int) (lo, hi int) {
	switch {
	case s > 0:
		lo, hi = ceilDiv(-v, s), floorDiv(dim-1-v, s)+1
	case s < 0:
		lo, hi = ceilDiv(v-dim+1, -s), floorDiv(v, -s)+1
	case v >= 0 && v < dim:
		lo, hi = 0, n
	}
	return max(lo, 0), min(hi, n)
}

// floorDiv and ceilDiv divide by b > 0, rounding down and up.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

func ceilDiv(a, b int) int { return -floorDiv(-a, b) }
