package tracegen_test

import (
	"fmt"
	"sync"
	"testing"

	"softcache/internal/timing"
	"softcache/internal/tracegen"
)

// TestGapStreamConcurrentPinned generates traces with two seeds and two
// models at once, each model fresh, so that the generators race to fill
// the shared gap stream and to replace it with their own (model, seed)'s:
// traces drawn from a copy of the paper's model keep their pinned
// fingerprints, and traces drawn from a constant model have the same
// records with every gap but the first at that constant.
func TestGapStreamConcurrentPinned(t *testing.T) {
	paper, err := timing.NewGapModel(timing.PaperGapBuckets)
	if err != nil {
		t.Fatal(err)
	}
	constant := timing.Constant(3)
	builds := pinBuilds()
	var wg sync.WaitGroup
	for _, name := range []string{"MV", "SpMV", "MDG/swpf=4", "BlockedMM/ld=120/copy"} {
		for _, seed := range []uint64{1, 2} {
			key := fmt.Sprintf("%s/seed=%d", name, seed)
			wg.Add(1)
			go func() {
				defer wg.Done()
				p, err := builds[name]()
				if err != nil {
					t.Error(err)
					return
				}
				pinned, err := tracegen.Generate(p, tracegen.Options{Seed: seed, Gaps: paper})
				if err != nil {
					t.Error(err)
					return
				}
				if got := pinned.Fingerprint(); got != pinnedTraces[key] {
					t.Errorf("%s: fingerprint %#x, want %#x", key, got, pinnedTraces[key])
				}
				if p, err = builds[name](); err != nil {
					t.Error(err)
					return
				}
				r, err := tracegen.NewReader(p, tracegen.Options{Seed: seed, Gaps: constant})
				if err != nil {
					t.Error(err)
					return
				}
				defer r.Close()
				recs, err := readAll(r, 7)
				if err != nil || len(recs) != pinned.Len() {
					t.Errorf("%s, constant gaps: %d records (%v), want %d", key, len(recs), err, pinned.Len())
					return
				}
				for i, rec := range recs {
					want := pinned.Records[i]
					want.Gap = 3
					if i == 0 {
						want.Gap = 0
					}
					if rec != want {
						t.Errorf("%s, constant gaps: record %d = %+v, want %+v", key, i, rec, want)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
}
