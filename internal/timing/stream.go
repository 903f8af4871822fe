package timing

import (
	"sync"
	"sync/atomic"
)

// Every trace generated with one model and seed draws the same gap
// sequence, whatever its program: gap i is the i-th Sample of NewRNG(seed).
// So the sequence is drawn once and shared. The process retains one
// stream, that of the (model, seed) asked for last (a figure pass and the
// daemon's resident traces each use one seed): the sequence's first
// gapStreamChunks×gapChunkLen gaps (4 Mi, above the ~2.5M records of the
// longest paper-scale trace), filled a chunk at a time as readers reach
// it. A new (model, seed) replaces it, and readers of the old one read on
// from it until they finish. A chunk is never written once published and
// never copied, so readers share it without locks and a stream leaves no
// garbage as it grows. So at most gapStreamChunks×gapChunkLen bytes
// (4 MiB) of gaps are retained, however many seeds are asked for.
// Variables so that tests can shrink them.
var (
	gapChunkLen     = 1 << 12
	gapStreamChunks = 1 << 10
)

type streamKey struct {
	model *GapModel
	seed  uint64
}

// gapStream is the shared prefix of one (model, seed) gap sequence.
type gapStream struct {
	key      streamKey
	chunkLen int
	chunks   []atomic.Pointer[[]uint8] // chunk k holds gaps [k·chunkLen, (k+1)·chunkLen)

	mu     sync.Mutex
	filled int // chunks published; guarded by mu
	rng    RNG // the sequence's state after the filled chunks; guarded by mu
}

// retained holds the one retained gap stream.
var retained struct {
	mu sync.Mutex
	s  *gapStream // guarded by mu
}

// stream returns the retained stream of (m, seed), first replacing the
// retained stream with a new one if it is another (model, seed)'s.
func stream(m *GapModel, seed uint64) *gapStream {
	k := streamKey{m, seed}
	retained.mu.Lock()
	defer retained.mu.Unlock()
	if s := retained.s; s != nil && s.key == k {
		return s
	}
	s := &gapStream{
		key:      k,
		chunkLen: gapChunkLen,
		chunks:   make([]atomic.Pointer[[]uint8], gapStreamChunks),
		rng:      *NewRNG(seed),
	}
	retained.s = s
	return s
}

// chunk returns chunk k, drawing it and every chunk before it that is
// still missing.
func (s *gapStream) chunk(k int) []uint8 {
	if c := s.chunks[k].Load(); c != nil {
		return *c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for ; s.filled <= k; s.filled++ {
		c := make([]uint8, s.chunkLen)
		s.key.model.fill(c, &s.rng)
		s.chunks[s.filled].Store(&c)
	}
	return *s.chunks[k].Load()
}

// afterCap returns the sequence's RNG state past the stream's last gap.
func (s *gapStream) afterCap() RNG {
	s.chunk(len(s.chunks) - 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng
}

// fill draws len(dst) gaps from rng into dst, each as a byte, the way a
// trace record stores it.
func (m *GapModel) fill(dst []uint8, rng *RNG) {
	for i := range dst {
		dst[i] = uint8(m.Sample(rng))
	}
}

// Gaps reads one (model, seed) gap sequence in order, a run at a time:
// the i-th gap it yields is uint8(m.Sample(r)) for the i-th draw of
// r := NewRNG(seed). Runs within the stream's cap are the shared stream's
// chunks; past the cap a Gaps draws its own from the RNG state at the
// cap. A Gaps is not safe for concurrent use; any number may read one
// sequence at once.
type Gaps struct {
	s   *gapStream
	k   int     // the next chunk of s
	rng RNG     // past the cap: the sequence's state
	own []uint8 // past the cap: the run drawn from rng
}

// Gaps returns a reader of m's gap sequence for seed, from its first gap.
func (m *GapModel) Gaps(seed uint64) Gaps { return Gaps{s: stream(m, seed)} }

// Next returns the run of gaps that follows the last one Next returned.
// The run is never empty. It is shared and read-only: the caller must
// not write it, and may read it only until its next call to Next.
func (g *Gaps) Next() []uint8 {
	if g.k < len(g.s.chunks) {
		g.k++
		return g.s.chunk(g.k - 1)
	}
	if g.own == nil {
		g.rng = g.s.afterCap()
		g.own = make([]uint8, g.s.chunkLen)
	}
	g.s.key.model.fill(g.own, &g.rng)
	return g.own
}
