package tracegen

import (
	"errors"
	"io"

	"softcache/internal/loopir"
	"softcache/internal/trace"
)

// Reader streams a program's trace one batch at a time: a
// trace.BatchReader over a running generator, so a consumer such as
// core.Run simulates the trace without it ever being held in
// memory. Its records are Generate's, batch by batch, and Len is the
// counting pass's exact record count, counted when first asked for.
//
// The generator runs on a goroutine of its own but never alongside its
// consumer: it fills the batch ReadBatch hands it, returns it and waits
// for the next, so a Reader costs no extra core. A consumer that stops
// before io.EOF or an error must call Close, which ends that goroutine.
// A Reader is not safe for concurrent use.
type Reader struct {
	name    string
	count   int // the counting pass's answer, once counted
	counted bool
	g       *generator
	run     action

	fill   chan []trace.Record // ReadBatch -> generator: the next batch to fill
	filled chan batch          // generator -> ReadBatch: the batch, filled
	stop   chan struct{}       // closed by Close
	exited chan struct{}       // closed when the generator goroutine returns

	started, closed bool
	err             error // sticky: io.EOF after the last batch, or the failure
}

// batch is the generator's answer to one ReadBatch: how many records it
// wrote and, on the last batch, why generation ended (io.EOF when it
// finished). A panic inside the generator travels back in panicked and is
// re-raised on the consumer's goroutine, where callers can recover it.
type batch struct {
	n        int
	err      error
	panicked any
}

var errClosed = errors.New("tracegen: reader closed")

// NewReader analyses p like Generate and returns a Reader over its trace.
// Nothing is generated until the first ReadBatch.
func NewReader(p *loopir.Program, opts Options) (*Reader, error) {
	tags, err := analyze(p)
	if err != nil {
		return nil, err
	}
	g, run, err := newGenerator(p, tags, opts)
	if err != nil {
		return nil, err
	}
	r := &Reader{
		name:   p.Name,
		g:      g,
		run:    run,
		fill:   make(chan []trace.Record),
		filled: make(chan batch),
		stop:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	g.flush = r.handOver
	return r, nil
}

// Name returns the program's name, the trace name Generate would give.
func (r *Reader) Name() string { return r.name }

// Len returns the trace's record count, or -1 when the counting pass
// could not establish it (generation then reports why). The first call
// runs the counting pass; a Reader whose length nobody asks for never
// runs it. Len may be called at any point, between ReadBatch calls too.
func (r *Reader) Len() int {
	if !r.counted {
		r.count, r.counted = r.g.records(), true
	}
	return r.count
}

// ExactLen reports that Len, when it is not -1, is the counting pass's
// exact count rather than a claim read from input, so trace.ReadAll may
// allocate the records in one step.
func (r *Reader) ExactLen() bool { return true }

// ReadBatch generates up to len(dst) records into dst, following the
// trace.BatchReader contract.
func (r *Reader) ReadBatch(dst []trace.Record) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if len(dst) == 0 {
		return 0, nil
	}
	if !r.started {
		r.started = true
		go r.generate()
	}
	r.fill <- dst
	b := <-r.filled
	if b.panicked != nil {
		r.err = errClosed
		panic(b.panicked)
	}
	if b.err == io.EOF && b.n > 0 {
		r.err = io.EOF
		return b.n, nil
	}
	r.err = b.err
	return b.n, b.err
}

// Close stops the generator if it is still running and waits for its
// goroutine to return. It is safe to call more than once.
func (r *Reader) Close() error {
	if r.err == nil {
		r.err = errClosed
	}
	if r.started && !r.closed {
		r.closed = true
		close(r.stop)
		<-r.exited
	}
	return nil
}

// generate runs the program on the generator goroutine. ReadBatch sends
// the first batch right after starting it; every further one arrives
// through handOver.
func (r *Reader) generate() {
	defer close(r.exited)
	defer func() {
		if p := recover(); p != nil {
			r.filled <- batch{panicked: p}
		}
	}()
	dst := <-r.fill
	r.g.recs = dst[:0:len(dst)]
	err := r.run(r.g)
	if err == errClosed {
		return
	}
	if err == nil {
		err = io.EOF
	}
	r.filled <- batch{n: len(r.g.recs), err: err}
}

// handOver is the generator's flush: it returns the full batch to
// ReadBatch and waits for the next one, or for Close.
func (r *Reader) handOver() error {
	r.filled <- batch{n: len(r.g.recs)}
	select {
	case dst := <-r.fill:
		r.g.recs = dst[:0:len(dst)]
		return nil
	case <-r.stop:
		return errClosed
	}
}
