package timing

import (
	"sync"
	"testing"
)

// readGaps reads the first n gaps of m's sequence for seed through Gaps.
func readGaps(m *GapModel, seed uint64, n int) []uint8 {
	g := m.Gaps(seed)
	var out []uint8
	for len(out) < n {
		out = append(out, g.Next()...)
	}
	return out[:n]
}

// sampled draws the first n gaps of m's sequence for seed one Sample at
// a time.
func sampled(m *GapModel, seed uint64, n int) []uint8 {
	rng := NewRNG(seed)
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(m.Sample(rng))
	}
	return out
}

// retainedBytes returns the gap bytes the retained stream holds.
func retainedBytes() int {
	retained.mu.Lock()
	defer retained.mu.Unlock()
	bytes := 0
	if s := retained.s; s != nil {
		for k := range s.chunks {
			if s.chunks[k].Load() != nil {
				bytes += s.chunkLen
			}
		}
	}
	return bytes
}

// TestGapStreamsBounded: however many seeds and models are asked for,
// and however far past the cap each is read, one stream stays retained,
// the one asked for last, holding at most the cap's gaps; a reader of a
// replaced stream reads on from it, still Sample's draws.
func TestGapStreamsBounded(t *testing.T) {
	const chunkLen, chunks = 64, 4
	defer SetGapStreamShape(chunkLen, chunks)()
	models := []*GapModel{PaperGapModel(), Constant(2)}
	old := PaperGapModel().Gaps(1000)
	first := old.Next()
	for seed := uint64(1); seed <= 20; seed++ {
		m := models[seed%2]
		readGaps(m, seed, 2*chunkLen*chunks)
		if bytes := retainedBytes(); bytes > chunkLen*chunks {
			t.Fatalf("after seed %d: %d bytes of gaps retained, want at most %d", seed, bytes, chunkLen*chunks)
		}
		retained.mu.Lock()
		last := retained.s.key == streamKey{m, seed}
		retained.mu.Unlock()
		if !last {
			t.Fatalf("after seed %d: the retained stream is not the last one asked for", seed)
		}
	}
	got := append([]uint8(nil), first...)
	for len(got) < 2*chunkLen*chunks {
		got = append(got, old.Next()...)
	}
	want := sampled(PaperGapModel(), 1000, len(got))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replaced stream: gap %d is %d, want %d", i, got[i], want[i])
		}
	}
}

// TestGapStreamConcurrentReaders: readers of one fresh sequence, and of
// two that keep replacing each other as the retained stream, racing to
// fill the same chunks, all read Sample's draws.
func TestGapStreamConcurrentReaders(t *testing.T) {
	defer SetGapStreamShape(128, 8)()
	m, err := NewGapModel(PaperGapBuckets) // a fresh model: streams start empty
	if err != nil {
		t.Fatal(err)
	}
	const n = 128*8 + 300
	want := map[uint64][]uint8{1: sampled(m, 1, n), 2: sampled(m, 2, n)}
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		seed := uint64(1 + r%2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := readGaps(m, seed, n)
			for i, w := range want[seed] {
				if got[i] != w {
					t.Errorf("seed %d: gap %d is %d, want %d", seed, i, got[i], w)
					return
				}
			}
		}()
	}
	wg.Wait()
}
