// Reuse oracle: a trace-replay ground truth for the static locality tags.
//
// The locality analysis (§2.3) tags each static reference temporal or
// spatial from subscript structure alone. This file answers "was it
// right?" by observing, for every dynamic reference in the generated
// trace, whether the promised reuse actually happens:
//
//   - temporal reuse observed: the same word is accessed again within a
//     bounded reuse window (the tag's promise: keep the line, its data
//     will be needed again);
//   - spatial reuse observed: a *different* word of the same cache line
//     is accessed within the window (the tag's promise: fetch the long
//     virtual line, the neighbours will be needed).
//
// The window is measured in distinct lines touched — the same metric as a
// stack distance — so "within the window" means "while the line could
// still plausibly be resident". A tag names a property of the *data*, not
// a direction of time: the store that closes a read-modify-write pair
// exhibits its temporal reuse backwards, the first load of a group
// forwards. The oracle therefore looks both ways, scanning the trace
// twice (forward and reversed) and OR-ing the observations.
package stackdist

import (
	"math"

	"softcache/internal/idtable"
	"softcache/internal/trace"
)

// Reuse holds the per-record observation bits produced by the oracle.
type Reuse struct {
	// Temporal: the same word is re-referenced within the window,
	// in the past or the future.
	Temporal bool
	// Spatial: a different word of the same line is referenced within the
	// window, in the past or the future.
	Spatial bool
}

// dense is a trace's data references over compact ids.
type dense struct {
	// word holds one entry per record: the dense id of its word (its
	// address), or -1 for a software prefetch, which is a hint, not a
	// reference.
	word []int32
	// line maps a word id to the dense id of its cache line.
	line []int32
	// lines is the number of distinct lines; refs the number of records
	// that are not software prefetches.
	lines, refs int
}

// densify maps each record's word and line to dense ids, in order of first
// touch: one table lookup per record, and one more per distinct word.
func densify(t *trace.Trace, lineBytes int) dense {
	if len(t.Records) >= math.MaxInt32 {
		panic("stackdist: trace too long for int32 times")
	}
	d := dense{word: make([]int32, len(t.Records))}
	var words, lines idtable.Table
	for i, rec := range t.Records {
		if rec.SoftwarePrefetch {
			d.word[i] = -1
			continue
		}
		d.refs++
		w, fresh := words.ID(rec.Addr)
		if fresh {
			l, _ := lines.ID(rec.Addr / uint64(lineBytes))
			d.line = append(d.line, l)
		}
		d.word[i] = w
	}
	d.lines = lines.Len()
	return d
}

// reuseScan performs one directional pass over a dense trace. Times count
// the pass's references from 1; 0 means "never".
type reuseScan struct {
	wordLast  []int32 // word -> time of latest touch
	lineLast  []int32 // line -> time of latest touch
	lineWord  []int32 // line -> word of that touch
	lineOther []int32 // line -> latest touch at a word != lineWord
	// tree holds a marker at each line's latest touch. It is nil when the
	// trace has no more distinct lines than the window, which then never
	// binds.
	tree   fenwick
	seen   int // distinct lines touched so far
	now    int32
	window int
}

func newReuseScan(d dense, window int) *reuseScan {
	s := &reuseScan{
		wordLast:  make([]int32, len(d.line)),
		lineLast:  make([]int32, d.lines),
		lineWord:  make([]int32, d.lines),
		lineOther: make([]int32, d.lines),
		window:    window,
	}
	if d.lines > window {
		s.tree = newFenwick(d.refs)
	}
	return s
}

// step processes one reference and reports the reuse observed *behind* it
// in this pass's scan direction, measured in distinct lines touched since.
func (s *reuseScan) step(w, l int32) (r Reuse) {
	now := s.now + 1
	if tE := s.wordLast[w]; tE > 0 {
		// Same word touched before: temporal reuse if it is close enough.
		r.Temporal = s.within(tE, now)
	}
	// The latest touch of this line at a *different* word.
	tS := s.lineOther[l]
	if s.lineWord[l] != w {
		tS = s.lineLast[l]
	}
	if tS > 0 {
		r.Spatial = s.within(tS, now)
	}

	s.now = now
	last := s.lineLast[l]
	if last == 0 {
		s.seen++
	}
	if s.tree != nil {
		if last > 0 {
			s.tree.add(last, -1)
		}
		s.tree.add(now, 1)
	}
	s.wordLast[w] = now
	if s.lineWord[l] != w {
		s.lineOther[l] = last
		s.lineWord[l] = w
	}
	s.lineLast[l] = now
	return r
}

// within reports whether at most window distinct lines were touched
// strictly between times t and now. That count can exceed neither the
// steps elapsed nor the trace's distinct lines, so the tree is asked only
// when both exceed the window. Each line touched in the interval has
// exactly one latest-touch marker after t (markers only move forward).
func (s *reuseScan) within(t, now int32) bool {
	if int(now-t-1) <= s.window || s.tree == nil {
		return true
	}
	return s.seen-s.tree.sum(t) <= s.window
}

// ObserveReuse replays the trace through the oracle and returns one Reuse
// per record (software prefetches get the zero value — they are hints, not
// references). lineBytes defaults to 32, the paper's physical line;
// windowLines bounds how far apart (in distinct lines) two touches may be
// to count as reuse, defaulting to 65536 lines (2 MiB of 32-byte lines).
func ObserveReuse(t *trace.Trace, lineBytes, windowLines int) []Reuse {
	if lineBytes <= 0 {
		lineBytes = 32
	}
	if windowLines <= 0 {
		windowLines = 1 << 16
	}
	d := densify(t, lineBytes)
	out := make([]Reuse, len(t.Records))

	// Backward observations: scan forward, each step sees its past.
	s := newReuseScan(d, windowLines)
	for i, w := range d.word {
		if w >= 0 {
			out[i] = s.step(w, d.line[w])
		}
	}
	// Forward observations: scan the reversed trace, OR into place.
	s = newReuseScan(d, windowLines)
	for i := len(d.word) - 1; i >= 0; i-- {
		if w := d.word[i]; w >= 0 {
			r := s.step(w, d.line[w])
			out[i].Temporal = out[i].Temporal || r.Temporal
			out[i].Spatial = out[i].Spatial || r.Spatial
		}
	}
	return out
}
